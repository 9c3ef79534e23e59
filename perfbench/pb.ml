(* pb — the data-plane half of the benchmark; perfbench/run.py drives it.

     pb drive   closed- or open-loop, pipelined HTTP/1.1 generator against a live server
     pb expect  reference outputs computed in-process, for the correctness checks
     pb replay  the same generated inputs through the layers' public functions
                under benchmark-owned spans: the per-layer ledger

   Inputs and outputs are plain files written and read by run.py:
   bodies one JSON document per line, sequences one body index per
   line, results one whitespace-separated record per line. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pb: " ^ s); exit 2) fmt

(* --- command line: "pb CMD --key value ... --flag" --- *)

let cmd, opts =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest ->
      let rec go acc = function
        | k :: v :: tl when String.length v < 2 || String.sub v 0 2 <> "--" -> go ((k, v) :: acc) tl
        | k :: tl -> go ((k, "") :: acc) tl
        | [] -> acc
      in
      (cmd, go [] rest)
  | _ -> die "usage: pb drive|expect|replay --key value ..."

let opt k = List.assoc_opt ("--" ^ k) opts
let req k = match opt k with Some v -> v | None -> die "missing --%s" k
let int_opt k d = match opt k with Some v -> int_of_string v | None -> d

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> Array.of_list

let now_ns = Monotonic_clock.now
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let md5 s = Digest.to_hex (Digest.string s)

let request_bytes ~path body =
  match body with
  | None -> Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path
  | Some b ->
      Printf.sprintf
        "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: %d\r\n\r\n%s"
        path (String.length b) b

(* --- client-side response parsing --------------------------------------

   Re-parses from the start of the unconsumed bytes on every read: the
   responses here are a few KiB at most, so this stays cheap and keeps
   the parser stateless. *)

type parsed =
  | Need of { chunked : bool; chunks : int }  (** incomplete; head may be in *)
  | Head_pending
  | Done of { status : int; trace : string; body : string; next : int }
  | Bad of string

let find s from sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

let parse_response s pos =
  match find s pos "\r\n\r\n" with
  | None -> Head_pending
  | Some h -> (
      let lines =
        String.split_on_char '\n' (String.sub s pos (h - pos)) |> List.map String.trim
      in
      match lines with
      | [] -> Bad "empty head"
      | status_line :: headers -> (
          let status =
            match String.split_on_char ' ' status_line with
            | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
            | _ -> 0
          in
          let hdr name =
            List.find_map
              (fun l ->
                match String.index_opt l ':' with
                | Some i when String.lowercase_ascii (String.sub l 0 i) = name ->
                    Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
                | _ -> None)
              headers
          in
          let trace = Option.value ~default:"-" (hdr "x-trace-id") in
          let start = h + 4 in
          match hdr "transfer-encoding" with
          | Some te when String.lowercase_ascii te = "chunked" ->
              let buf = Buffer.create 4096 in
              let rec chunk p chunks =
                match find s p "\r\n" with
                | None -> Need { chunked = true; chunks }
                | Some e -> (
                    let size = String.sub s p (e - p) in
                    let size =
                      match String.index_opt size ';' with
                      | Some i -> String.sub size 0 i
                      | None -> size
                    in
                    match int_of_string_opt ("0x" ^ String.trim size) with
                    | None -> Bad "chunk size"
                    | Some 0 ->
                        if String.length s >= e + 4 then
                          Done { status; trace; body = Buffer.contents buf; next = e + 4 }
                        else Need { chunked = true; chunks }
                    | Some n ->
                        if String.length s >= e + 2 + n + 2 then begin
                          Buffer.add_substring buf s (e + 2) n;
                          chunk (e + 2 + n + 2) (chunks + 1)
                        end
                        else Need { chunked = true; chunks })
              in
              chunk start 0
          | _ ->
              let len =
                match hdr "content-length" with
                | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
                | None -> 0
              in
              if len < 0 then Bad "content-length"
              else if String.length s - start >= len then
                Done { status; trace; body = String.sub s start len; next = start + len }
              else Need { chunked = false; chunks = 0 }))

(* --- the generator ---------------------------------------------------

   Closed loop over [--conns] connections, each keeping [--depth]
   pipelined requests in flight: a connection sends its next request as
   soon as one of its responses completes, until [--seconds] have
   passed.  Bodies go out in the order of the [--sequence] file (body
   indices), cycling.  Every request is timed from the moment its bytes
   are handed to the kernel, and its record is written when it completes
   or fails, so memory stays flat however many requests a run makes.
   With [--whole-cycles] sending goes on past [--seconds] to the end of
   the sequence, so every body is sent equally often.

   With [--rate R] the loop is open instead: the sequence is sent once,
   request i falls due at i/R seconds and goes out on the connection
   with the fewest requests in flight, however many are already waiting.
   Its latency is timed from when it fell due, and its lateness (actual
   minus due send time) is recorded with it.  With [--get] every request
   is a GET of [--path] (one line per body still picks the sequence). *)

(* With [--cpu-pid PID --windows FILE] the generator also samples, every
   [--window-ops N] completed requests or every [--window-s S] seconds,
   the server's CPU time (all its threads), the VM's stolen and total
   CPU ticks and the server's resident set, one line per sample:
   "t_s completed cpu_ns steal total rss_kb".
   run.py turns consecutive samples into windows and keeps the ones in
   which the host stole least.  Sampling reads a few /proc files. *)

let proc_cpu_ns pid =
  let base = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match In_channel.with_open_text (Filename.concat base (Filename.concat tid "schedstat")) In_channel.input_all with
      | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | ns :: _ -> acc + int_of_string ns
          | [] -> acc)
      | exception Sys_error _ -> acc (* a thread that ended meanwhile *))
    0
    (try Sys.readdir base with Sys_error _ -> [||])

let proc_rss_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmRSS:" l then
               List.find_map int_of_string_opt (String.split_on_char ' ' l)
             else None)
      |> Option.value ~default:0
  | exception Sys_error _ -> 0

let vm_ticks () =
  let line = In_channel.with_open_text "/proc/stat" In_channel.input_line |> Option.value ~default:"" in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | _cpu :: fields ->
      let v = List.map int_of_string fields in
      (List.nth v 7, List.fold_left ( + ) 0 v)
  | [] -> (0, 0)

type record = {
  body : int;
  send : float;  (** s after t0: when sent (closed loop) or due (open loop) *)
  late : float;  (** s the generator sent after the due time; 0 in a closed loop *)
  mutable first : float;  (** response head (fixed) or first data chunk (chunked) *)
  mutable last : float;  (** last response byte *)
  mutable status : int;  (** 0 = no response: connect, protocol or timeout failure *)
  mutable trace : string;
  mutable digest : string;  (** MD5 of the (de-chunked) body *)
}

type conn = {
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
  q : record Queue.t;  (** requests in flight, in send order *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rbuf = Bytes.create 65536

let drive () =
  let port = int_of_string (req "port") in
  let path = req "path" in
  let get = opt "get" <> None in
  let reqs = Array.map (fun b -> request_bytes ~path (if get then None else Some b)) (read_lines (req "bodies")) in
  let seq = read_lines (req "sequence") |> Array.map int_of_string in
  let seconds = float_of_string (req "seconds") in
  let depth = int_opt "depth" 1 in
  let whole_cycles = opt "whole-cycles" <> None in
  let rate = Option.map float_of_string (opt "rate") in
  let conns =
    Array.init (int_opt "conns" 1) (fun _ ->
        { fd = Some (connect port); buf = Buffer.create 65536; q = Queue.create () })
  in
  let oc = open_out (req "out") in
  let completed = ref 0 in
  let sampler =
    match (opt "cpu-pid", opt "windows") with
    | Some pid, Some file ->
        let pid = int_of_string pid and wc = open_out file in
        let every_ops = int_opt "window-ops" 0 in
        let every_s = match opt "window-s" with Some v -> float_of_string v | None -> 0.0 in
        let last_ops = ref 0 and last_t = ref neg_infinity in
        let sample t =
          let steal, total = vm_ticks () in
          Printf.fprintf wc "%.6f %d %d %d %d %d\n" t !completed (proc_cpu_ns pid) steal total (proc_rss_kb pid);
          last_ops := !completed;
          last_t := t
        in
        let due t =
          (every_ops > 0 && !completed - !last_ops >= every_ops) || (every_s > 0.0 && t -. !last_t >= every_s)
        in
        Some (sample, due, wc)
    | _ -> None
  in
  let maybe_sample t = Option.iter (fun (sample, due, _) -> if due t then sample t) sampler in
  let write r =
    let us x = if Float.is_nan x then -1 else int_of_float (x *. 1e6) in
    Printf.fprintf oc "%d %d %d %d %d %s %s %d\n" r.body (us r.send) (us r.first) (us r.last) r.status r.trace
      r.digest (us r.late)
  in
  let next = ref 0 in
  let t0 = now_s () in
  let fail c =
    Queue.iter write c.q;
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
    c.fd <- None;
    Buffer.clear c.buf;
    Queue.clear c.q
  in
  let send ?due c fd =
    let b = seq.(!next mod Array.length seq) in
    incr next;
    let now = now_s () -. t0 in
    let send, late = match due with Some d -> (d, now -. d) | None -> (now, 0.0) in
    let r = { body = b; send; late; first = nan; last = nan; status = 0; trace = "-"; digest = "-" } in
    Queue.push r c.q;
    let s = reqs.(b) in
    match Unix.write_substring fd s 0 (String.length s) with
    | w when w = String.length s -> ()
    | _ | (exception Unix.Unix_error _) -> fail c
  in
  let top_up c =
    if c.fd = None then c.fd <- (try Some (connect port) with Unix.Unix_error _ -> None);
    let rec go () =
      match c.fd with
      | Some fd when Queue.length c.q < depth ->
          send c fd;
          go ()
      | _ -> ()
    in
    go ()
  in
  let on_readable c fd =
    match Unix.read fd rbuf 0 (Bytes.length rbuf) with
    | 0 | (exception Unix.Unix_error _) -> fail c
    | got -> (
        let t = now_s () -. t0 in
        Buffer.add_subbytes c.buf rbuf 0 got;
        let s = Buffer.contents c.buf in
        let rec go pos =
          match Queue.peek_opt c.q with
          | None -> `Ok pos
          | Some r -> (
              match parse_response s pos with
              | Head_pending -> `Ok pos
              | Need { chunked; chunks } ->
                  if Float.is_nan r.first && ((not chunked) || chunks > 0) then r.first <- t;
                  `Ok pos
              | Bad _ -> `Bad
              | Done d ->
                  if Float.is_nan r.first then r.first <- t;
                  r.last <- t;
                  r.status <- d.status;
                  r.trace <- d.trace;
                  r.digest <- md5 d.body;
                  write (Queue.pop c.q);
                  incr completed;
                  go d.next)
        in
        (match go 0 with
         | `Bad -> fail c
         | `Ok pos ->
             Buffer.clear c.buf;
             Buffer.add_substring c.buf s pos (String.length s - pos));
        maybe_sample t)
  in
  let send_due r now =
    let rec go () =
      let due = float_of_int !next /. r in
      if !next < Array.length seq && due <= now then begin
        let c = Array.fold_left (fun b c -> if Queue.length c.q < Queue.length b.q then c else b) conns.(0) conns in
        if c.fd = None then c.fd <- (try Some (connect port) with Unix.Unix_error _ -> None);
        (match c.fd with
         | Some fd -> send ~due c fd
         | None ->
             incr next;
             write { body = seq.(!next - 1); send = due; late = now -. due; first = nan; last = nan; status = 0;
                     trace = "-"; digest = "-" });
        go ()
      end
    in
    go ()
  in
  (* Once --seconds have passed, how long requests still in flight may
     take before they count as failed. *)
  let grace = 30.0 in
  let in_flight () = Array.exists (fun c -> not (Queue.is_empty c.q)) conns in
  let rec loop () =
    let now = now_s () -. t0 in
    let sending =
      match rate with
      | Some _ -> !next < Array.length seq
      | None -> now < seconds || (whole_cycles && !next mod Array.length seq <> 0)
    in
    if sending || (in_flight () && now < seconds +. grace) then begin
      (match rate with
       | Some r -> send_due r now
       | None -> if sending then Array.iter top_up conns);
      let fds = Array.to_list conns |> List.filter_map (fun c -> if Queue.is_empty c.q then None else c.fd) in
      (* An open loop wakes when its next request falls due. *)
      let wait =
        match rate with
        | Some r when sending -> Float.max 0.0 (Float.min 0.05 ((float_of_int !next /. r) -. (now_s () -. t0)))
        | _ -> 0.05
      in
      (if fds = [] then Unix.sleepf (Float.min wait 0.01)
       else
         match Unix.select fds [] [] wait with
         | ready, _, _ ->
             Array.iter
               (fun c -> match c.fd with Some fd when List.mem fd ready -> on_readable c fd | _ -> ())
               conns
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Option.iter (fun (sample, _, _) -> sample 0.0) sampler;
  loop ();
  Array.iter fail conns;
  Option.iter (fun (sample, _, wc) -> sample (now_s () -. t0); close_out wc) sampler;
  close_out oc

(* --- in-process reference outputs ------------------------------------ *)

let routes = lazy (Server.Handlers.routes ())

let parse_raw raw =
  match Server.Http.parse_request (Server.Http.conn_of_string raw) with
  | Ok r -> r
  | Error _ -> die "generated request does not parse"

let dispatch raw =
  Server.Router.dispatch ~routes:(Lazy.force routes) (parse_raw raw)

let sweep_cells body =
  match Obs.Json.parse body with
  | Error e -> die "grid: %s" e
  | Ok j -> (
      match Server.Api.sweep_axes_of_json j with
      | Error e -> die "grid: %s" e
      | Ok axes -> (
          match Stormsim.Sweep.expand axes with Ok c -> c | Error e -> die "grid: %s" e))

let sweep_rows ?jobs cells =
  let b = Buffer.create 65536 in
  let s = Stormsim.Sweep.run ?jobs ~cells ~emit:(fun r -> Buffer.add_string b (Stormsim.Sweep.row_line r)) () in
  (Buffer.contents b, s)

(* simulate: "status md5" per body; sweep: "200 md5 cells plans batches". *)
let expect () =
  Exec.set_default_jobs 1;
  let bodies = read_lines (req "bodies") in
  let oc = open_out (req "out") in
  (match req "kind" with
  | "simulate" ->
      Array.iter
        (fun b ->
          let resp = Server.Router.to_response (dispatch (request_bytes ~path:"/simulate" (Some b))) in
          Printf.fprintf oc "%d %s\n" resp.Server.Http.status (md5 resp.Server.Http.body))
        bodies
  | "sweep" ->
      Array.iter
        (fun b ->
          let rows, s = sweep_rows (sweep_cells b) in
          Printf.fprintf oc "200 %s %d %d %d\n" (md5 rows) s.Stormsim.Sweep.cells
            s.Stormsim.Sweep.plans_compiled s.Stormsim.Sweep.batches)
        bodies
  | k -> die "unknown kind %s" k);
  close_out oc

(* --- traced replay ---------------------------------------------------

   Every span (the benchmark's roots and stages, and the program's own
   plan/mc/gic spans nested inside them) is folded into per-name call
   counts, inclusive and self time.  Self time = duration minus the
   time direct children cover.  Rings are drained every few operations
   so none wraps. *)

type acc = { mutable calls : int; mutable incl_ns : float; mutable self_ns : float }

let stats : (string, acc) Hashtbl.t = Hashtbl.create 64

let acc name =
  match Hashtbl.find_opt stats name with
  | Some a -> a
  | None ->
      let a = { calls = 0; incl_ns = 0.0; self_ns = 0.0 } in
      Hashtbl.add stats name a;
      a

(* Time the benchmark spends on its own bookkeeping inside a traced pass
   (draining rings, hashing outputs); subtracted from the pass's wall
   time so coverage and overhead describe the workload alone. *)
let book_ns = ref 0.0

let booked f =
  let t0 = now_ns () in
  let r = f () in
  book_ns := !book_ns +. Int64.to_float (Int64.sub (now_ns ()) t0);
  r

let harvest () =
  booked @@ fun () ->
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Span.event) ->
      let st =
        match Hashtbl.find_opt stacks e.domain with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks e.domain s;
            s
      in
      match e.phase with
      | Obs.Span.Begin -> st := (e.name, e.t_ns, ref 0.0) :: !st
      | Obs.Span.End -> (
          match !st with
          | (name, t_b, child) :: rest when name = e.name ->
              let dur = Int64.to_float (Int64.sub e.t_ns t_b) in
              let a = acc name in
              a.calls <- a.calls + 1;
              a.incl_ns <- a.incl_ns +. dur;
              a.self_ns <- a.self_ns +. (dur -. !child);
              (match rest with (_, _, pc) :: _ -> pc := !pc +. dur | [] -> ());
              st := rest
          | _ -> ()))
    (Obs.Span.events ());
  Obs.Span.reset ()

let span name f = Obs.Span.with_ ~name f
let counter name =
  match Obs.Metrics.find (Obs.Metrics.snapshot ()) name with
  | Some (Obs.Metrics.Counter c) -> c
  | _ -> 0

let mean_incl name = match Hashtbl.find_opt stats name with Some a when a.calls > 0 -> a.incl_ns /. float_of_int a.calls | _ -> 0.0
let mean_self name = match Hashtbl.find_opt stats name with Some a when a.calls > 0 -> a.self_ns /. float_of_int a.calls | _ -> 0.0
let total_incl name = match Hashtbl.find_opt stats name with Some a -> a.incl_ns | None -> 0.0

(* Run [pass] twice over the same inputs, each time from cold caches
   warmed by [prime] (the live server's set-up): once with the Obs layer
   off (the reference wall time) and once traced.  Counters and spans
   cover the traced pass only.  Returns (untraced wall, traced wall) in
   ns. *)
let two_passes ~reset ~prime pass =
  reset ();
  Obs.disable ();
  prime ();
  let t0 = now_ns () in
  pass ~traced:false;
  let plain = Int64.to_float (Int64.sub (now_ns ()) t0) in
  reset ();
  prime ();
  Obs.reset ();
  Hashtbl.reset stats;
  book_ns := 0.0;
  Obs.enable ();
  let t0 = now_ns () in
  pass ~traced:true;
  harvest ();
  let traced = Int64.to_float (Int64.sub (now_ns ()) t0) -. !book_ns in
  Obs.disable ();
  (plain, traced)

let cache_reset () =
  Server.Api.reset ();
  Datasets.Cache.clear ()

let emit_metrics oc pairs =
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %.17g\n" k v) pairs

let build_dataset body =
  match Server.Api.params_of_body ~base:Server.Api.sim_defaults ~of_json:Server.Api.sim_of_json body with
  | Ok p ->
      ignore
        Server.Api.(
          match p.network with
          | Submarine -> Datasets.Cache.submarine ~seed:p.seed ()
          | Intertubes -> Datasets.Cache.intertubes ~seed:p.seed ()
          | Itu -> Datasets.Cache.itu ~seed:p.seed ~scale:p.itu_scale ())
  | Error e -> die "body: %s" e

(* One POST /simulate through the layers under the benchmark's stage
   spans.  With [build], the request's dataset is built first under its
   own span, as the live server does on a never-seen seed. *)
let simulate_stages ~build body =
  let req = span "bench.http.parse" (fun () -> parse_raw (request_bytes ~path:"/simulate" (Some body))) in
  if build then span "bench.dataset.build" (fun () -> build_dataset body);
  let resp =
    span "bench.dispatch" (fun () ->
        Server.Router.to_response (Server.Router.dispatch ~routes:(Lazy.force routes) req))
  in
  ignore (span "bench.http.write" (fun () -> Server.Http.to_string ~close:false resp));
  resp

(* The [--prime] bodies (the live server's set-up) are dispatched first,
   so replays of them are hits.  Sequence entries whose body index is in
   [--build] build their dataset under its own span first, as the live
   server does on a never-seen seed. *)
let replay_simulate oc =
  let bodies = read_lines (req "bodies") in
  let seq = read_lines (req "sequence") |> Array.map int_of_string in
  let prime = read_lines (req "prime") in
  let cold = Hashtbl.create 64 in
  Option.iter (fun f -> Array.iter (fun b -> Hashtbl.replace cold (int_of_string b) ()) (read_lines f)) (opt "build");
  let digests = Array.make (Array.length seq) "" in
  let builds = ref 0 in
  let prime_all () =
    Array.iter (fun b -> ignore (Server.Router.to_response (dispatch (request_bytes ~path:"/simulate" (Some b))))) prime
  in
  let pass ~traced =
    let b0 = Datasets.Cache.build_count () in
    let one i =
      let b = seq.(i) in
      let body = span "bench.request" @@ fun () -> (simulate_stages ~build:(Hashtbl.mem cold b) bodies.(b)).Server.Http.body in
      if traced then booked (fun () -> digests.(i) <- md5 body)
    in
    (* Requests run in chunks under a "bench.chunk" root: request spans
       then sit below depth 0, where the span layer would also sample
       process resources at every boundary, and the rings are drained
       between chunks, before any can wrap. *)
    let n = Array.length seq in
    let rec chunks lo =
      if lo < n then begin
        let hi = min n (lo + 256) in
        span "bench.chunk" (fun () -> for i = lo to hi - 1 do one i done);
        if traced then harvest ();
        chunks hi
      end
    in
    chunks 0;
    if traced then builds := Datasets.Cache.build_count () - b0
  in
  let plain, traced = two_passes ~reset:cache_reset ~prime:prime_all pass in
  emit_metrics oc
    [
      ("http.parse_us", mean_incl "bench.http.parse" /. 1e3);
      ("http.write_us", mean_incl "bench.http.write" /. 1e3);
      ("api.dispatch_us", mean_self "bench.dispatch" /. 1e3);
      ("dataset.builds", float_of_int !builds);
      ("dataset.build_ms", mean_incl "bench.dataset.build" /. 1e6);
      ("plan.compile_ms", mean_incl "plan.compile" /. 1e6);
      ("trials.ns_per_trial",
       let t = counter "plan.trials" in
       if t > 0 then total_incl "plan.run_trials" /. float_of_int t else 0.0);
      ("replay.wall_ns", traced);
      ("trace.coverage_pct", 100.0 *. total_incl "bench.request" /. traced);
      ("trace.overhead_pct", 100.0 *. (traced -. plain) /. plain);
    ];
  let d = open_out (req "digests") in
  Array.iter (fun s -> output_string d (s ^ "\n")) digests;
  close_out d

let replay_sweep oc =
  let bodies = read_lines (req "bodies") in
  let seq = read_lines (req "sequence") |> Array.map int_of_string in
  let prime = read_lines (req "prime") in
  let digests = Array.make (Array.length seq) "" in
  let rows = ref 0 in
  let builds = ref 0 in
  let pass ~traced =
    let b0 = Datasets.Cache.build_count () in
    (* The live server's set-up: one simulate per grid dataset. *)
    span "bench.setup" (fun () ->
        Array.iter (fun body -> ignore (simulate_stages ~build:true body)) prime);
    Array.iteri
      (fun i b ->
        let out =
          span "bench.sweep" @@ fun () ->
          ignore (span "bench.http.parse" (fun () -> parse_raw (request_bytes ~path:"/sweep" (Some bodies.(b)))));
          let axes =
            span "bench.sweep.decode" (fun () ->
                match Obs.Json.parse bodies.(b) with
                | Ok j -> Server.Api.sweep_axes_of_json j
                | Error e -> Error e)
          in
          let cells =
            span "bench.sweep.expand" (fun () ->
                match axes with
                | Ok axes -> (match Stormsim.Sweep.expand axes with Ok c -> c | Error e -> die "%s" e)
                | Error e -> die "%s" e)
          in
          let buf = Buffer.create 65536 in
          ignore
            (span "bench.sweep.run" (fun () ->
                 Stormsim.Sweep.run ~cells
                   ~emit:(fun r ->
                     span "bench.sweep.row" (fun () ->
                         let line = Stormsim.Sweep.row_line r in
                         Buffer.add_string buf line;
                         ignore (span "bench.http.write" (fun () -> Server.Http.chunk line)));
                     if traced then incr rows)
                   ()));
          Buffer.contents buf
        in
        if traced then begin
          booked (fun () -> digests.(i) <- md5 out);
          harvest ()
        end)
      seq;
    if traced then builds := Datasets.Cache.build_count () - b0
  in
  let plain, traced = two_passes ~reset:cache_reset ~prime:ignore pass in
  let trials = counter "plan.trials" in
  (* exec.speedup: the heaviest grid of the sequence at jobs 1 vs jobs N,
     median of three each, untraced. *)
  let heavy =
    Array.fold_left (fun best b -> if String.length bodies.(b) > String.length bodies.(best) then b else best) seq.(0) seq
  in
  let cells = sweep_cells bodies.(heavy) in
  let time jobs =
    let ts = List.init 3 (fun _ -> let t0 = now_ns () in ignore (sweep_rows ~jobs cells); Int64.to_float (Int64.sub (now_ns ()) t0)) in
    List.nth (List.sort compare ts) 1
  in
  let par = int_opt "jobs" 2 in
  let t1 = time 1 in
  let tn = time par in
  emit_metrics oc
    [
      ("http.parse_us", mean_incl "bench.http.parse" /. 1e3);
      ("http.write_us", mean_incl "bench.http.write" /. 1e3);
      ("dataset.builds", float_of_int !builds);
      ("dataset.build_ms", mean_incl "bench.dataset.build" /. 1e6);
      ("sweep.expand_us", mean_incl "bench.sweep.expand" /. 1e3);
      ("sweep.row_us", (if !rows > 0 then total_incl "bench.sweep.row" /. float_of_int !rows else 0.0) /. 1e3);
      ("plan.compile_ms", mean_incl "plan.compile" /. 1e6);
      ("trials.ns_per_trial", if trials > 0 then total_incl "plan.run_trials" /. float_of_int trials else 0.0);
      ("fm.compiles", float_of_int (counter "fm.compiles"));
      ("exec.speedup", t1 /. tn);
      ("replay.wall_ns", traced);
      ("trace.coverage_pct", 100.0 *. (total_incl "bench.setup" +. total_incl "bench.sweep") /. traced);
      ("trace.overhead_pct", 100.0 *. (traced -. plain) /. plain);
    ];
  let d = open_out (req "digests") in
  Array.iter (fun s -> output_string d (s ^ "\n")) digests;
  close_out d

let heavy_figures = [ "risk-horizon"; "interdomain"; "capacity"; "ablations"; "mitigation"; "fig7" ]

let replay_figures oc =
  let out = ref "" in
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let pass ~traced =
    if traced then gc0 := Gc.quick_stat ();
    span "bench.figures" (fun () ->
        let ctx =
          span "bench.figures.context" (fun () ->
              let ctx = Report.Figures.make_context ~seed:Datasets.default_seed ~itu_scale:0.3 ~caida_ases:8000 () in
              ignore (Report.Figures.submarine ctx, Report.Figures.intertubes ctx, Report.Figures.itu ctx);
              ignore (Report.Figures.ases ctx, Report.Figures.dns ctx, Report.Figures.ixps ctx);
              ctx)
        in
        let all = span "bench.figures.render" (fun () -> Report.Figures.all ~trials:10 ctx) in
        let b = Buffer.create 65536 in
        List.iter (fun (fid, text) -> Printf.bprintf b "----- %s -----\n%s\n" fid text) all;
        if traced then out := Buffer.contents b);
    if traced then gc1 := Gc.quick_stat ()
  in
  let plain, traced = two_passes ~reset:Datasets.Cache.clear ~prime:ignore pass in
  let trials = counter "plan.trials" in
  let g0 = !gc0 and g1 = !gc1 in
  emit_metrics oc
    ([
       ("figures.context_ms", total_incl "bench.figures.context" /. 1e6);
       ("gic.exposure_ms", total_incl "gic.network_exposures" /. 1e6);
       ("fm.compiles", float_of_int (counter "fm.compiles"));
       ("plan.compiles", float_of_int (counter "plan.compiles"));
       ("plan.compile_ms", mean_incl "plan.compile" /. 1e6);
       ("trials.count", float_of_int trials);
       ("trials.ns_per_trial", if trials > 0 then total_incl "plan.run_trials" /. float_of_int trials else 0.0);
       ("gc.minor_per_op", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
       ("gc.major_per_op", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
       ("gc.promoted_words_per_op", g1.Gc.promoted_words -. g0.Gc.promoted_words);
       ("replay.wall_ns", traced);
       ("trace.coverage_pct", 100.0 *. total_incl "bench.figures" /. traced);
       ("trace.overhead_pct", 100.0 *. (traced -. plain) /. plain);
     ]
    @ List.map (fun id -> (Printf.sprintf "figures.%s_ms" id, total_incl ("figures." ^ id) /. 1e6)) heavy_figures);
  Out_channel.with_open_bin (req "render") (fun o -> output_string o !out)

let replay () =
  (* Single-domain replay: every span lands on one ring and self times
     need no cross-domain accounting. *)
  Exec.set_default_jobs 1;
  Obs.Span.set_clock now_ns;
  Obs.Span.set_capacity 262_144;
  let oc = open_out (req "out") in
  (match req "kind" with
  | "simulate" -> replay_simulate oc
  | "sweep" -> replay_sweep oc
  | "figures" -> replay_figures oc
  | k -> die "unknown kind %s" k);
  close_out oc;
  (* The full stage ledger: every span name with calls, inclusive and
     self time, over the traced pass. *)
  let oc = open_out (req "ledger") in
  Hashtbl.fold (fun name a l -> (name, a) :: l) stats []
  |> List.sort (fun (_, a) (_, b) -> compare b.self_ns a.self_ns)
  |> List.iter (fun (name, a) -> Printf.fprintf oc "%s %d %.0f %.0f\n" name a.calls a.incl_ns a.self_ns);
  close_out oc

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match cmd with
  | "drive" -> drive ()
  | "expect" -> expect ()
  | "replay" -> replay ()
  | "version" -> print_endline Sys.ocaml_version
  | c -> die "unknown command %s" c
