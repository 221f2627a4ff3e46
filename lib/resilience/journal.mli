(** Append-only write-ahead journal of verification progress.

    A journal is a flat sequence of CRC32-framed, length-prefixed
    records.  Each frame is written with a single buffered write
    followed by a flush, so after a crash the file is always a valid
    frame sequence followed by at most one torn frame.  {!scan} recovery
    embraces exactly that failure model: it walks frames from the start
    and truncates at the first missing magic, impossible length, CRC
    mismatch or short tail — everything before the damage is kept,
    everything after is reported as dropped bytes.

    Record kinds mirror the engine's durability protocol:
    - [Header] opens a run and carries the config fingerprint (net +
      property digest) so a journal is never replayed onto the wrong
      problem;
    - [Step] carries one engine step's trace events (one frame per
      step, so a step is journaled atomically or not at all);
    - [Checkpoint], one per run right after its [Header], carries what
      the run starts from (strategy, budget, initial specification
      tree) — recovery builds the engine from it and replays every
      [Step] frame after it.

    The journal layer itself is engine-agnostic: payloads are opaque
    strings, and the framing never raises on malformed input. *)

type kind = Header | Step | Checkpoint

val kind_name : kind -> string

type record = { kind : kind; payload : string }

(** {2 Writing} *)

type writer
(** An append-only sink.  Not thread-safe; one writer per run. *)

val create : ?flush:(unit -> unit) -> ?close:(unit -> unit) -> emit:(string -> unit) -> unit -> writer
(** A writer over an arbitrary byte sink.  [emit] receives each encoded
    frame whole; [flush] (default no-op) runs after every append —
    durability is the point of a WAL, so appends are flushed eagerly. *)

val to_buffer : Buffer.t -> writer
(** In-memory writer (the chaos harness's crash simulator). *)

val open_file : string -> writer
(** Truncate-or-create [path] and journal into it, flushing after every
    frame.  {!close} the writer when done.
    @raise Sys_error if the file cannot be opened. *)

val append : writer -> kind -> string -> unit
(** Frame the payload and hand it to the sink, then flush. *)

val appends : writer -> int
(** Frames appended so far. *)

val close : writer -> unit
(** Flush and release the underlying sink.  Idempotent. *)

(** {2 Framing} *)

val encode_frame : kind -> string -> string
(** The exact bytes {!append} writes: ["IVJ1"] magic, a kind byte, a
    4-byte big-endian payload length, a 4-byte big-endian CRC32 (over
    the kind byte and payload), then the payload. *)

(** {2 Recovery} *)

type recovery = {
  records : record list;  (** the valid frame prefix, in append order *)
  valid_bytes : int;  (** length of that prefix in bytes *)
  dropped_bytes : int;  (** torn / corrupt tail bytes discarded *)
}

val scan : string -> recovery
(** Parse the longest valid frame prefix.  Total: never raises —
    arbitrary bytes yield an empty record list with everything
    dropped. *)

val scan_file : string -> (recovery, string) result
(** {!scan} over a file's contents; [Error] when the file cannot be
    read. *)

val last_run : record list -> record list
(** The records of the newest run in the journal: the suffix starting
    at the last [Header] (a journal written through {!append} by
    successive runs concatenates their records).  The whole list when
    no [Header] is present. *)
