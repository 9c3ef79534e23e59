(** Process resource gauges: GC counters and wall time, exported through
    the ordinary {!Metrics} snapshot/Prometheus/JSON paths.

    Gauge catalogue (all last-write-wins, refreshed by {!sample}):
    - [gc.minor_words], [gc.promoted_words], [gc.major_words] — words
      allocated/promoted since process start ([Gc.quick_stat]);
    - [gc.heap_words], [gc.top_heap_words] — current and peak major heap;
    - [gc.minor_collections], [gc.major_collections], [gc.compactions];
    - [proc.wall_ns] — monotonic nanoseconds since the obs library
      initialised (≈ process start).

    {!Span.with_} samples automatically around top-level main-domain
    spans; exporters call {!sample} once more right before snapshotting
    so the gauges describe the finished run. *)

val heap_words : Metrics.gauge
val minor_collections : Metrics.gauge
val major_collections : Metrics.gauge
val compactions : Metrics.gauge
(** Handles read directly by the server's [/statusz]. *)

val sample : unit -> unit
(** Refresh every gauge from [Gc.quick_stat] and the monotonic clock.
    A no-op while the obs layer is disabled. *)
