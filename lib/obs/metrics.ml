(* Domain-safety: mutations can come from the worker domains of the
   parallel trial engine, so every mutable cell is an [Atomic].  Counters
   are additionally sharded by domain id: [rng.draws] and [plan.trials]
   are incremented once per Bernoulli draw / per trial, and a single
   contended fetch-and-add would serialize exactly the loop the domains
   exist to parallelize.  A shard is picked by hashing the domain id, so
   increments from different domains usually hit different cache lines;
   totals are the exact sum over shards (reads snapshot each shard
   atomically — int addition loses nothing). *)

let shards = 8 (* power of two: shard pick is a mask *)

type counter = { c_name : string; c_counts : int Atomic.t array }
type gauge = { g_name : string; g_value : float Atomic.t; g_set : bool Atomic.t }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_counts : int Atomic.t array; (* length = Array.length h_bounds + 1; last = overflow *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type histogram_state = { bounds : float array; counts : int array; sum : float; count : int }
type value = Counter of int | Gauge of float | Histogram of histogram_state

type snapshot = (string * value) list

type metric = C of counter | G of gauge | H of histogram

(* Registration and snapshotting are rare; a mutex keeps the registry
   itself domain-safe without touching the mutation fast path. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let registered name make =
  with_registry @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace registry name m;
      m

let kind_mismatch name = invalid_arg ("Obs.Metrics: " ^ name ^ " registered with another kind")

let atomic_ints n = Array.init n (fun _ -> Atomic.make 0)

let counter name =
  match registered name (fun () -> C { c_name = name; c_counts = atomic_ints shards }) with
  | C c -> c
  | _ -> kind_mismatch name

let gauge name =
  match
    registered name (fun () ->
        G { g_name = name; g_value = Atomic.make 0.0; g_set = Atomic.make false })
  with
  | G g -> g
  | _ -> kind_mismatch name

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Obs.Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Obs.Metrics.histogram: bucket bounds must increase strictly")
    bounds

let histogram name ~buckets =
  check_bounds buckets;
  match
    registered name (fun () ->
        H
          {
            h_name = name;
            h_bounds = Array.copy buckets;
            h_counts = atomic_ints (Array.length buckets + 1);
            h_sum = Atomic.make 0.0;
            h_count = Atomic.make 0;
          })
  with
  | H h ->
      if h.h_bounds <> buckets then
        invalid_arg ("Obs.Metrics: " ^ name ^ " re-registered with different buckets");
      h
  | _ -> kind_mismatch name

let enabled = Control.enabled

(* Domain ids are handed out sequentially, and with a persistent worker
   pool they are *stable* for the life of the process — masking the raw
   id would pin sequentially spawned workers to adjacent shards and make
   ids 8 apart collide forever.  Mix the id first (Fibonacci hashing:
   multiply by ⌊2⁶³/φ⌋, an odd constant, and take the top bits, which is
   where a multiply concentrates its entropy) so near-by ids land on
   unrelated shards. *)
let shard_of_id id = ((id * 0x2545F4914F6CDD1D) lsr 60) land (shards - 1)
let shard_of_domain () = shard_of_id (Domain.self () :> int)

let incr c =
  if Atomic.get Control.flag then Atomic.incr c.c_counts.(shard_of_domain ())

let add c n =
  if Atomic.get Control.flag then
    ignore (Atomic.fetch_and_add c.c_counts.(shard_of_domain ()) n)

let set g v =
  if Atomic.get Control.flag then begin
    Atomic.set g.g_value v;
    Atomic.set g.g_set true
  end

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let bucket_index bounds v =
  (* Linear scan: bucket arrays here are small (<= ~16). A value lands in
     the first bucket whose upper bound is >= v; past the last bound it
     falls into the overflow slot. *)
  let n = Array.length bounds in
  let rec scan i = if i = n then n else if v <= bounds.(i) then i else scan (i + 1) in
  scan 0

let observe h v =
  if Atomic.get Control.flag then begin
    Atomic.incr h.h_counts.(bucket_index h.h_bounds v);
    atomic_add_float h.h_sum v;
    Atomic.incr h.h_count
  end

let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_counts
let gauge_value g = Atomic.get g.g_value

let quantile ~bounds ~counts q =
  (* Prometheus-style histogram_quantile: find the bucket holding the
     q-th rank and interpolate linearly inside it, assuming observations
     are uniform within a bucket.  [counts] is per-bucket (the snapshot
     layout), with the overflow slot last.  Estimates land in the +Inf
     bucket collapse to the last finite bound — the histogram records
     nothing about the tail beyond it. *)
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Obs.Metrics.quantile: q outside [0, 1]";
  if Array.length counts <> Array.length bounds + 1 then
    invalid_arg "Obs.Metrics.quantile: counts length must be bounds length + 1";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let rank = q *. float_of_int total in
    let n = Array.length bounds in
    (* First bucket whose cumulative count reaches the rank; skipping
       empty buckets (cum' only moves on non-empty ones) also keeps
       [rank = 0] out of a 0/0 interpolation. *)
    let rec locate i cum =
      if i > n then (n, cum) (* unreachable: cum reaches total by the last slot *)
      else
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= rank then (i, cum)
        else locate (i + 1) cum'
    in
    let i, below = locate 0 0 in
    if i = n then Some bounds.(n - 1)
    else
      let lower = if i = 0 then Float.min 0.0 bounds.(0) else bounds.(i - 1) in
      let width = bounds.(i) -. lower in
      let inside = (rank -. float_of_int below) /. float_of_int counts.(i) in
      Some (lower +. (width *. inside))
  end

let histogram_value h =
  {
    bounds = Array.copy h.h_bounds;
    counts = Array.map Atomic.get h.h_counts;
    sum = Atomic.get h.h_sum;
    count = Atomic.get h.h_count;
  }

let value_of = function
  | C c -> Counter (counter_value c)
  | G g -> Gauge (gauge_value g)
  | H h -> Histogram (histogram_value h)

let snapshot () =
  with_registry (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

let reset () =
  with_registry @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Array.iter (fun a -> Atomic.set a 0) c.c_counts
      | G g ->
          Atomic.set g.g_value 0.0;
          Atomic.set g.g_set false
      | H h ->
          Array.iter (fun a -> Atomic.set a 0) h.h_counts;
          Atomic.set h.h_sum 0.0;
          Atomic.set h.h_count 0)
    registry

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge _, Gauge y -> Gauge y (* right-biased: the later snapshot wins *)
  | Histogram x, Histogram y ->
      if x.bounds <> y.bounds then
        invalid_arg ("Obs.Metrics.merge: " ^ name ^ " has mismatched buckets");
      Histogram
        {
          bounds = x.bounds;
          counts = Array.init (Array.length x.counts) (fun i -> x.counts.(i) + y.counts.(i));
          sum = x.sum +. y.sum;
          count = x.count + y.count;
        }
  | _ -> invalid_arg ("Obs.Metrics.merge: " ^ name ^ " has mismatched kinds")

let merge a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) a;
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt tbl name with
      | None -> Hashtbl.replace tbl name v
      | Some prev -> Hashtbl.replace tbl name (merge_value name prev v))
    b;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
