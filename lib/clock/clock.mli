(** Time sources shared by every layer that measures or enforces time.

    Two distinct clocks, for two distinct jobs:

    - {!wall} is [Unix.gettimeofday]: seconds since the epoch, for
      timestamps shown to humans.  It is subject to NTP steps and manual
      adjustment, so it must never back a deadline.
    - {!monotonic} is the kernel's [CLOCK_MONOTONIC] (via bechamel's
      noalloc stub): seconds from an arbitrary origin that only ever
      move forward.  All deadline and timeout arithmetic — the engine's
      wall-clock budget, the resilience layer's per-node timeout,
      elapsed-time measurement — uses this source, so a clock step
      cannot spuriously fire or suppress a timeout. *)

val wall : unit -> float
(** Wall-clock seconds since the epoch ([Unix.gettimeofday]).
    Timestamps only; never deadlines. *)

val monotonic : unit -> float
(** Monotonic seconds from an arbitrary origin ([CLOCK_MONOTONIC]).
    Only differences are meaningful. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f ()] and returns its result together with the
    elapsed seconds, measured on the monotonic clock. *)
