(** The time source shared by every layer that measures or enforces time.

    {!monotonic} is the kernel's [CLOCK_MONOTONIC] (via bechamel's
    noalloc stub): seconds from an arbitrary origin that only ever move
    forward.  All deadline and timeout arithmetic — the engine's
    wall-clock budget, the resilience layer's per-node timeout,
    elapsed-time measurement — uses this source, so a clock step cannot
    spuriously fire or suppress a timeout. *)

val monotonic : unit -> float
(** Monotonic seconds from an arbitrary origin ([CLOCK_MONOTONIC]).
    Only differences are meaningful. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f ()] and returns its result together with the
    elapsed seconds, measured on the monotonic clock. *)
