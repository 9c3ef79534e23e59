(** Injectable nanosecond clocks.

    The tracing layer never calls the system clock directly; it reads
    whichever [t] is installed via {!Span.set_clock}.  Tests install a
    deterministic fake so span timings (and exporter golden output) are
    reproducible. *)

type t = unit -> int64
(** A clock: returns a monotonically non-decreasing timestamp in
    nanoseconds. *)

val monotonic : t
(** Wall-clock based default (nanosecond-scaled [Unix.gettimeofday]). *)

val fake : ?start:int64 -> ?step:int64 -> unit -> t
(** [fake ()] ticks deterministically: each call returns the previous
    value advanced by [step] (default 1000 ns, starting at [start]). *)
