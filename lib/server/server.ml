(** The dependency-free simulation service behind [solarstorm serve]:
    a hardened HTTP/1.1 layer ({!Http}), method × path routing
    ({!Router}), the endpoint handlers ({!Handlers}), a lock-striped
    canonical-key LRU result cache plus the shared compute/encode path
    ({!Api}, {!Lru}), N self-contained event loops with backpressure
    and graceful drain ({!Service}), the pipelined loopback load generator
    ({!Loadgen}), and the windowed self-monitoring surface: the global
    sampler state ({!Monitor}), the /dashboard renderer ({!Dashboard})
    and the live terminal view ({!Top}).

    Design notes in DESIGN.md §8; quickstart in README "Serving". *)

module Http = Http
module Lru = Lru
module Api = Api
module Router = Router
module Handlers = Handlers
module Service = Service
module Loadgen = Loadgen
module Monitor = Monitor
module Dashboard = Dashboard
module Top = Top
