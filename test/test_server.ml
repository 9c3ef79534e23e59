(* Tests for the lib/server service layer: the hardened HTTP parser
   (valid, truncated, oversized, pipelined input), the router's error
   mapping, the LRU, the canonical result cache (a repeated request is
   answered byte-identically without re-running trials), loopback
   end-to-end exchanges against a real socket on an ephemeral port, the
   event loops' trace-id goldens and FD_SETSIZE guard, and QCheck
   properties for pipelined parsing under arbitrary write splits. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let counter_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* Server state is process-global (metrics, result cache, plan memo);
   every test starts clean and leaves the layer off. *)
let with_server_state f =
  Obs.reset ();
  Obs.enable ();
  Server.Api.reset ();
  Fun.protect
    ~finally:(fun () ->
      Server.Api.reset ();
      Obs.disable ();
      Obs.reset ())
    f

(* --- HTTP parser --- *)

let parse s = Server.Http.parse_request (Server.Http.conn_of_string s)

let test_parse_valid_get () =
  match parse "GET /healthz?probe=1 HTTP/1.1\r\nHost: localhost\r\nX-Extra:  spaced  \r\n\r\n" with
  | Error _ -> Alcotest.fail "valid GET rejected"
  | Ok req ->
      Alcotest.(check bool) "method" true (req.Server.Http.meth = Server.Http.GET);
      Alcotest.(check string) "target keeps query" "/healthz?probe=1" req.Server.Http.target;
      Alcotest.(check string) "path strips query" "/healthz" (Server.Http.path req);
      Alcotest.(check (option string)) "case-insensitive header" (Some "localhost")
        (Server.Http.header req "HOST");
      Alcotest.(check (option string)) "value trimmed" (Some "spaced")
        (Server.Http.header req "x-extra");
      Alcotest.(check string) "no body" "" req.Server.Http.body;
      Alcotest.(check bool) "keep-alive by default" false (Server.Http.wants_close req)

let test_parse_valid_post_body () =
  let body = "{\"trials\":3}" in
  let raw =
    Printf.sprintf "POST /simulate HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      (String.length body) body
  in
  match parse raw with
  | Error _ -> Alcotest.fail "valid POST rejected"
  | Ok req ->
      Alcotest.(check bool) "method" true (req.Server.Http.meth = Server.Http.POST);
      Alcotest.(check string) "body" body req.Server.Http.body;
      Alcotest.(check bool) "connection: close honoured" true (Server.Http.wants_close req)

let test_parse_http10_defaults_to_close () =
  match parse "GET / HTTP/1.0\r\n\r\n" with
  | Ok req -> Alcotest.(check bool) "HTTP/1.0 closes" true (Server.Http.wants_close req)
  | Error _ -> Alcotest.fail "HTTP/1.0 rejected"

let expect_error name raw check =
  match parse raw with
  | Ok _ -> Alcotest.fail (name ^ ": accepted")
  | Error e -> check e

let test_parse_truncated () =
  expect_error "truncated head" "GET / HTTP/1.1\r\nHost: x" (function
    | Server.Http.Bad_request m ->
        Alcotest.(check bool) "names the truncation" true (contains m "truncated")
    | _ -> Alcotest.fail "wrong error");
  expect_error "truncated body" "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc" (function
    | Server.Http.Bad_request m ->
        Alcotest.(check bool) "names the truncation" true (contains m "truncated")
    | _ -> Alcotest.fail "wrong error");
  expect_error "empty input is EOF" "" (function
    | Server.Http.Eof -> ()
    | _ -> Alcotest.fail "wrong error")

let test_parse_garbage () =
  expect_error "not HTTP" "hello world\r\n\r\n" (function
    | Server.Http.Bad_request _ -> ()
    | _ -> Alcotest.fail "wrong error");
  expect_error "bad version" "GET / HTTP/2.0\r\n\r\n" (function
    | Server.Http.Bad_request m ->
        Alcotest.(check bool) "names the version" true (contains m "version")
    | _ -> Alcotest.fail "wrong error");
  expect_error "bad content-length" "POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n" (function
    | Server.Http.Bad_request _ -> ()
    | _ -> Alcotest.fail "wrong error");
  expect_error "chunked unsupported" "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
    (function
    | Server.Http.Bad_request m ->
        Alcotest.(check bool) "names transfer-encoding" true (contains m "transfer-encoding")
    | _ -> Alcotest.fail "wrong error")

let test_parse_oversized () =
  let limits = { Server.Http.max_head = 64; Server.Http.max_body = 16 } in
  let big_head =
    "GET / HTTP/1.1\r\nx-pad: " ^ String.make 100 'a' ^ "\r\n\r\n"
  in
  (match Server.Http.parse_request ~limits (Server.Http.conn_of_string big_head) with
  | Error Server.Http.Head_too_large -> ()
  | _ -> Alcotest.fail "oversized head not rejected");
  let big_body = "POST / HTTP/1.1\r\ncontent-length: 17\r\n\r\n" ^ String.make 17 'b' in
  match Server.Http.parse_request ~limits (Server.Http.conn_of_string big_body) with
  | Error Server.Http.Body_too_large -> ()
  | _ -> Alcotest.fail "oversized body not rejected"

let test_parse_pipelined () =
  let raw =
    "POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nonePOST /b HTTP/1.1\r\ncontent-length: 3\r\n\r\ntwo"
  in
  let conn = Server.Http.conn_of_string raw in
  (match Server.Http.parse_request conn with
  | Ok req ->
      Alcotest.(check string) "first target" "/a" req.Server.Http.target;
      Alcotest.(check string) "first body" "one" req.Server.Http.body
  | Error _ -> Alcotest.fail "first pipelined request rejected");
  Alcotest.(check bool) "second request is buffered" true (Server.Http.buffered conn);
  (match Server.Http.parse_request conn with
  | Ok req ->
      Alcotest.(check string) "second target" "/b" req.Server.Http.target;
      Alcotest.(check string) "second body" "two" req.Server.Http.body
  | Error _ -> Alcotest.fail "second pipelined request rejected");
  match Server.Http.parse_request conn with
  | Error Server.Http.Eof -> ()
  | _ -> Alcotest.fail "expected EOF after the pipeline"

let test_parse_timeout () =
  (* A peer that connects and then stalls: the fd source gives up after
     its per-read budget and the parser reports Timeout, not a hang. *)
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ r; w ])
    (fun () ->
      let conn = Server.Http.conn_of_fd ~timeout_s:0.05 r in
      match Server.Http.parse_request conn with
      | Error Server.Http.Timeout -> ()
      | _ -> Alcotest.fail "stalled peer did not time out")

let test_response_to_string () =
  let s =
    Server.Http.to_string ~close:false (Server.Http.response ~status:200 "{\"ok\":true}\n")
  in
  Alcotest.(check bool) "status line" true (contains s "HTTP/1.1 200 OK\r\n");
  Alcotest.(check bool) "content-length" true (contains s "content-length: 12\r\n");
  Alcotest.(check bool) "keep-alive" true (contains s "connection: keep-alive\r\n");
  let closed =
    Server.Http.to_string ~close:true (Server.Http.response ~status:503 "x")
  in
  Alcotest.(check bool) "close" true (contains closed "connection: close\r\n");
  Alcotest.(check bool) "503 reason" true (contains closed "503 Service Unavailable")

(* --- router --- *)

let request ?(meth = Server.Http.GET) ?(body = "") target =
  {
    Server.Http.meth;
    target;
    version = "HTTP/1.1";
    headers = [];
    body;
  }

let dispatch ?meth ?body target =
  with_server_state @@ fun () ->
  Server.Router.to_response
    (Server.Router.dispatch ~routes:(Server.Handlers.routes ())
       (request ?meth ?body target))

let test_router_not_found () =
  let resp = dispatch "/nope" in
  Alcotest.(check int) "status" 404 resp.Server.Http.status;
  Alcotest.(check bool) "names the path" true (contains resp.Server.Http.body "/nope")

let test_router_method_not_allowed () =
  let resp = dispatch "/simulate" in
  Alcotest.(check int) "status" 405 resp.Server.Http.status;
  Alcotest.(check (option string)) "allow header" (Some "POST")
    (List.assoc_opt "allow" resp.Server.Http.extra_headers);
  Alcotest.(check bool) "names the method" true (contains resp.Server.Http.body "GET")

let test_router_bad_body_is_400 () =
  let cases =
    [
      "{not json";
      "{\"trials\":\"many\"}";
      "{\"no_such_field\":1}";
      "{\"trials\":0}";
      "{\"network\":\"warp\"}";
    ]
  in
  List.iter
    (fun body ->
      let resp = dispatch ~meth:Server.Http.POST ~body "/simulate" in
      Alcotest.(check int) ("400 for " ^ body) 400 resp.Server.Http.status;
      Alcotest.(check bool) "error body" true (contains resp.Server.Http.body "\"error\""))
    cases

let test_router_handler_crash_is_500 () =
  let routes =
    [
      {
        Server.Router.meth = Server.Http.GET;
        route_path = "/boom";
        handler = (fun _ -> failwith "kaboom");
      };
    ]
  in
  let resp = Server.Router.to_response (Server.Router.dispatch ~routes (request "/boom")) in
  Alcotest.(check int) "status" 500 resp.Server.Http.status;
  Alcotest.(check bool) "names the failure" true (contains resp.Server.Http.body "kaboom")

let test_router_healthz () =
  let resp = dispatch "/healthz" in
  Alcotest.(check int) "status" 200 resp.Server.Http.status;
  Alcotest.(check string) "body" "{\"status\":\"ok\"}\n" resp.Server.Http.body

(* --- LRU --- *)

let test_lru_eviction_order () =
  let t = Server.Lru.create ~capacity:2 in
  Alcotest.(check (option (pair string int))) "no eviction" None (Server.Lru.add t "a" 1);
  Alcotest.(check (option (pair string int))) "no eviction" None (Server.Lru.add t "b" 2);
  (* Touch "a" so "b" becomes the LRU entry. *)
  Alcotest.(check (option int)) "find promotes" (Some 1) (Server.Lru.find t "a");
  Alcotest.(check (option (pair string int))) "b evicted" (Some ("b", 2))
    (Server.Lru.add t "c" 3);
  Alcotest.(check (list string)) "recency order" [ "c"; "a" ]
    (Server.Lru.keys_newest_first t);
  Alcotest.(check (option int)) "evicted key gone" None (Server.Lru.find t "b");
  Alcotest.(check int) "length" 2 (Server.Lru.length t)

let test_lru_refresh_existing () =
  let t = Server.Lru.create ~capacity:2 in
  ignore (Server.Lru.add t "a" 1);
  ignore (Server.Lru.add t "b" 2);
  Alcotest.(check (option (pair string int))) "refresh evicts nothing" None
    (Server.Lru.add t "a" 10);
  Alcotest.(check (option int)) "value replaced" (Some 10) (Server.Lru.find t "a");
  Alcotest.(check int) "length unchanged" 2 (Server.Lru.length t)

let test_lru_zero_capacity_disables () =
  let t = Server.Lru.create ~capacity:0 in
  Alcotest.(check (option (pair string int))) "drop on add" None (Server.Lru.add t "a" 1);
  Alcotest.(check (option int)) "nothing stored" None (Server.Lru.find t "a");
  Alcotest.(check int) "empty" 0 (Server.Lru.length t);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Server.Lru.create ~capacity:(-1)))

(* --- result cache determinism --- *)

let test_cache_key_canonicalization () =
  (* The ITU scale is normalized out of non-ITU keys, so two requests
     differing only in the irrelevant field share one entry... *)
  let base = { Server.Api.sim_defaults with trials = 3 } in
  Alcotest.(check string) "itu_scale irrelevant for submarine"
    (Server.Api.sim_key base)
    (Server.Api.sim_key { base with itu_scale = 0.9 });
  (* ...while every relevant field lands in the key. *)
  let distinct p name =
    Alcotest.(check bool) (name ^ " changes the key") false
      (String.equal (Server.Api.sim_key base) (Server.Api.sim_key p))
  in
  distinct { base with trials = 4 } "trials";
  distinct { base with seed = base.Server.Api.seed + 1 } "seed";
  distinct { base with spacing_km = 151.0 } "spacing";
  distinct { base with network = Server.Api.Intertubes } "network";
  distinct { base with model = Stormsim.Failure_model.s2 } "model";
  (* Model probabilities are keyed at full precision: %g's six significant
     digits must not merge distinct models. *)
  let m1 = Stormsim.Failure_model.uniform 0.010000001 in
  let m2 = Stormsim.Failure_model.uniform 0.010000002 in
  Alcotest.(check bool) "nearby probabilities stay distinct" false
    (String.equal
       (Server.Api.sim_key { base with model = m1 })
       (Server.Api.sim_key { base with model = m2 }))

let test_cache_hit_skips_trials () =
  with_server_state @@ fun () ->
  let params = { Server.Api.sim_defaults with trials = 4 } in
  let key = Server.Api.sim_key params in
  let compute () = Ok (Server.Api.simulate_body params) in
  let first = Server.Api.with_cache ~key compute in
  let trials_after_first = counter_value "plan.trials" in
  Alcotest.(check int) "first run executed the trials" 4 trials_after_first;
  Alcotest.(check int) "one miss" 1 (counter_value "server.cache.misses");
  let second = Server.Api.with_cache ~key compute in
  (match (first, second) with
  | Ok a, Ok b -> Alcotest.(check string) "byte-identical replay" a b
  | _ -> Alcotest.fail "compute failed");
  Alcotest.(check int) "no further trials ran" trials_after_first
    (counter_value "plan.trials");
  Alcotest.(check int) "one hit" 1 (counter_value "server.cache.hits");
  (* A different key computes again. *)
  let params' = { params with seed = params.Server.Api.seed + 1 } in
  (match Server.Api.with_cache ~key:(Server.Api.sim_key params') (fun () ->
       Ok (Server.Api.simulate_body params'))
  with
  | Ok b -> Alcotest.(check bool) "different seed, different body" false
      (match first with Ok a -> String.equal a b | Error _ -> true)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "second miss" 2 (counter_value "server.cache.misses")

let test_cache_does_not_store_errors () =
  with_server_state @@ fun () ->
  let calls = ref 0 in
  let compute () = incr calls; Error "transient" in
  (match Server.Api.with_cache ~key:"k" compute with
  | Error "transient" -> ()
  | _ -> Alcotest.fail "error not propagated");
  (match Server.Api.with_cache ~key:"k" compute with
  | Error "transient" -> ()
  | _ -> Alcotest.fail "error not propagated");
  Alcotest.(check int) "errors recompute" 2 !calls;
  Alcotest.(check int) "nothing cached" 0 (Server.Api.cache_length ())

let test_cache_eviction_is_counted () =
  with_server_state @@ fun () ->
  (* One shard: global LRU order, so exactly the third insert evicts. *)
  Server.Api.set_cache_capacity ~shards:1 2;
  List.iter
    (fun k -> ignore (Server.Api.with_cache ~key:k (fun () -> Ok k)))
    [ "k1"; "k2"; "k3" ];
  Alcotest.(check int) "evictions counted" 1 (counter_value "server.cache.evictions");
  Alcotest.(check int) "capacity respected" 2 (Server.Api.cache_length ())

let test_params_of_body_defaults () =
  let decode body =
    Server.Api.params_of_body ~base:Server.Api.sim_defaults
      ~of_json:Server.Api.sim_of_json body
  in
  (match decode "" with
  | Ok p -> Alcotest.(check bool) "empty body means defaults" true (p = Server.Api.sim_defaults)
  | Error e -> Alcotest.fail e);
  (match decode "  \n " with
  | Ok p -> Alcotest.(check bool) "whitespace body means defaults" true (p = Server.Api.sim_defaults)
  | Error e -> Alcotest.fail e);
  (match decode "{\"trials\":7,\"network\":\"intertubes\"}" with
  | Ok p ->
      Alcotest.(check int) "trials overlaid" 7 p.Server.Api.trials;
      Alcotest.(check bool) "network overlaid" true (p.Server.Api.network = Server.Api.Intertubes);
      Alcotest.(check int) "seed untouched" Server.Api.sim_defaults.Server.Api.seed
        p.Server.Api.seed
  | Error e -> Alcotest.fail e);
  match decode "[1,2]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object body accepted"

(* --- chunked transfer framing --- *)

let test_chunk_framing () =
  Alcotest.(check string) "payload framed" "4\r\nrow\n\r\n" (Server.Http.chunk "row\n");
  Alcotest.(check string) "hex size" "10\r\n0123456789abcdef\r\n"
    (Server.Http.chunk "0123456789abcdef");
  Alcotest.(check string) "empty payload dropped" "" (Server.Http.chunk "");
  Alcotest.(check string) "terminator" "0\r\n\r\n" Server.Http.last_chunk

let test_respond_stream_framing () =
  let buf = Buffer.create 256 in
  Server.Http.respond_stream ~status:200 ~close:false
    ~write:(Buffer.add_string buf)
    (fun emit ->
      emit "row1\n";
      emit "";
      emit "row2\n");
  let out = Buffer.contents buf in
  let head_end =
    match String.index_opt out '\n' with
    | Some _ ->
        let rec find i =
          if i + 4 > String.length out then Alcotest.fail "no head terminator"
          else if String.sub out i 4 = "\r\n\r\n" then i
          else find (i + 1)
        in
        find 0
    | None -> Alcotest.fail "no head"
  in
  let head = String.lowercase_ascii (String.sub out 0 head_end) in
  Alcotest.(check bool) "chunked header" true (contains head "transfer-encoding: chunked");
  Alcotest.(check bool) "no content-length" false (contains head "content-length");
  Alcotest.(check bool) "keep-alive" true (contains head "connection: keep-alive");
  let tail = String.sub out (head_end + 4) (String.length out - head_end - 4) in
  (* Empty emits vanish; each payload is one frame; terminal chunk last. *)
  Alcotest.(check string) "frames" "5\r\nrow1\n\r\n5\r\nrow2\n\r\n0\r\n\r\n" tail

let test_read_chunk_roundtrip () =
  let c = Server.Http.conn_of_string "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n" in
  (match Server.Http.read_chunk c with
  | Ok (Some data) -> Alcotest.(check string) "first chunk" "hello" data
  | _ -> Alcotest.fail "first chunk unreadable");
  (match Server.Http.read_chunk c with
  | Ok (Some data) -> Alcotest.(check string) "extension ignored" " world" data
  | _ -> Alcotest.fail "second chunk unreadable");
  (match Server.Http.read_chunk c with
  | Ok None -> ()
  | _ -> Alcotest.fail "terminal chunk not recognized");
  (* The concatenating reader sees the same stream. *)
  let c2 = Server.Http.conn_of_string "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n" in
  match Server.Http.read_chunked_body c2 with
  | Ok body -> Alcotest.(check string) "concatenated" "hello world" body
  | Error _ -> Alcotest.fail "round-trip failed"

let test_read_chunk_malformed () =
  let bad s =
    match Server.Http.read_chunked_body (Server.Http.conn_of_string s) with
    | Error (Server.Http.Bad_request _) -> ()
    | Error _ -> Alcotest.fail (Printf.sprintf "%S: wrong error class" s)
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" s)
  in
  bad "zz\r\nhello\r\n0\r\n\r\n";           (* non-hex size *)
  bad "\r\nhello\r\n0\r\n\r\n";             (* empty size line *)
  bad "1_0\r\nhello\r\n0\r\n\r\n";          (* OCaml-ism, not HTTP hex *)
  bad "5\r\nhelloXY0\r\n\r\n";              (* data not CRLF-terminated *)
  bad "5\r\nhel";                           (* truncated mid-data *)
  (* A chunk declared over max_body is refused before its data is read. *)
  let limits = { Server.Http.max_head = 8192; max_body = 16 } in
  match
    Server.Http.read_chunked_body ~limits
      (Server.Http.conn_of_string "ff\r\njunk\r\n0\r\n\r\n")
  with
  | Error Server.Http.Body_too_large -> ()
  | _ -> Alcotest.fail "oversized chunk accepted"

(* --- loopback end-to-end --- *)

(* Split the first complete response off [buf]: head to CRLFCRLF, then
   exactly content-length body bytes (responses always carry one).
   [None] until all of it has arrived. *)
let split_response buf =
  let hd_end =
    let rec find i =
      if i + 4 > String.length buf then None
      else if String.sub buf i 4 = "\r\n\r\n" then Some i
      else find (i + 1)
    in
    find 0
  in
  Option.bind hd_end @@ fun hd_end ->
  let head = String.sub buf 0 hd_end in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "bad status line"
  in
  let content_length =
    let lower = String.lowercase_ascii head in
    match
      List.find_opt
        (fun line -> String.length line > 15 && String.sub line 0 15 = "content-length:")
        (String.split_on_char '\n' lower)
    with
    | Some line ->
        int_of_string (String.trim (String.sub line 15 (String.length line - 15)))
    | None -> failwith "no content-length"
  in
  let body_start = hd_end + 4 in
  if String.length buf < body_start + content_length then None
  else
    let rest = body_start + content_length in
    Some
      ( (status, head, String.sub buf body_start content_length),
        String.sub buf rest (String.length buf - rest) )

(* Read [k] pipelined responses off the socket, in order. *)
let read_responses fd k =
  let chunk = Bytes.create 4096 in
  let rec go k buf acc =
    if k = 0 then List.rev acc
    else
      match split_response buf with
      | Some (resp, rest) -> go (k - 1) rest (resp :: acc)
      | None ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then
            failwith
              (if buf = "" then "peer closed before response head" else "peer closed mid-response");
          go k (buf ^ Bytes.sub_string chunk 0 n) acc
  in
  go k "" []

let read_response fd = List.hd (read_responses fd 1)

let send_all fd s =
  let rec go off len =
    if len > 0 then
      let n = Unix.write_substring fd s off len in
      go (off + n) (len - n)
  in
  go 0 (String.length s)

let with_loopback_server ?trace_seed ?(workers = 1) ?(sampler_step = 0.0) ?(slo = []) f =
  with_server_state @@ fun () ->
  let port_box = Atomic.make 0 in
  let slo_rules =
    List.map
      (fun src ->
        match Obs.Alerts.parse_rule src with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
      slo
  in
  let cfg =
    {
      Server.Service.default_config with
      port = 0;
      workers;
      idle_poll_s = 0.01;
      drain_grace_s = 0.5;
      log = ignore;
      trace_seed;
      sampler_step_s = sampler_step;
      slo_rules;
    }
  in
  let server =
    Domain.spawn (fun () ->
        Server.Service.run ~on_ready:(fun ~port -> Atomic.set port_box port) cfg)
  in
  let rec wait_port tries =
    if Atomic.get port_box <> 0 then Atomic.get port_box
    else if tries = 0 then failwith "server never became ready"
    else begin
      Unix.sleepf 0.01;
      wait_port (tries - 1)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Service.stop ();
      Domain.join server)
    (fun () -> f (wait_port 500))

let with_client port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      f fd)

let post_simulate port body =
  with_client port @@ fun fd ->
  send_all fd
    (Printf.sprintf
       "POST /simulate HTTP/1.1\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s"
       (String.length body) body);
  read_response fd

let test_loopback_end_to_end () =
  with_loopback_server @@ fun port ->
  (* healthz over a real socket *)
  (with_client port @@ fun fd ->
   send_all fd "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
   let status, _head, body = read_response fd in
   Alcotest.(check int) "healthz status" 200 status;
   Alcotest.(check string) "healthz body" "{\"status\":\"ok\"}\n" body);
  (* two identical POSTs: byte-identical bodies, trials ran once *)
  let req_body = "{\"trials\":4,\"seed\":11}" in
  let s1, _, b1 = post_simulate port req_body in
  let trials_after_first = counter_value "plan.trials" in
  let s2, _, b2 = post_simulate port req_body in
  Alcotest.(check int) "first simulate" 200 s1;
  Alcotest.(check int) "second simulate" 200 s2;
  Alcotest.(check string) "byte-identical responses" b1 b2;
  Alcotest.(check int) "repeat served from cache" trials_after_first
    (counter_value "plan.trials");
  Alcotest.(check bool) "cache hit counted" true (counter_value "server.cache.hits" >= 1);
  (* the HTTP body matches the shared encoder output exactly *)
  (match
     Server.Api.params_of_body ~base:Server.Api.sim_defaults
       ~of_json:Server.Api.sim_of_json req_body
   with
  | Ok p -> Alcotest.(check string) "CLI/HTTP parity" (Server.Api.simulate_body p) b1
  | Error e -> Alcotest.fail e);
  (* /metrics shows the live counters *)
  (with_client port @@ fun fd ->
   send_all fd "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n";
   let status, head, body = read_response fd in
   Alcotest.(check int) "metrics status" 200 status;
   Alcotest.(check bool) "prometheus exposition content type" true
     (contains (String.lowercase_ascii head) "content-type: text/plain; version=0.0.4");
   Alcotest.(check bool) "request counter exported" true
     (contains body "server_requests");
   Alcotest.(check bool) "cache hit exported" true (contains body "server_cache_hits 1"));
  (* keep-alive: two requests on one connection, then a bad one *)
  with_client port @@ fun fd ->
  send_all fd "GET /healthz HTTP/1.1\r\n\r\n";
  let s1, _, _ = read_response fd in
  send_all fd "GET /nope HTTP/1.1\r\n\r\n";
  let s2, _, body2 = read_response fd in
  Alcotest.(check int) "keep-alive first" 200 s1;
  Alcotest.(check int) "keep-alive 404" 404 s2;
  Alcotest.(check bool) "404 names the path" true (contains body2 "/nope")

let test_loopback_rejects_garbage () =
  with_loopback_server @@ fun port ->
  with_client port @@ fun fd ->
  send_all fd "NOT-HTTP-AT-ALL\r\n\r\n";
  let status, _, body = read_response fd in
  Alcotest.(check int) "garbage is 400" 400 status;
  Alcotest.(check bool) "error body" true (contains body "\"error\"")

(* POST /sweep over a real socket: the response must be chunked, carry a
   trace id, de-chunk to exactly the bytes the in-process engine emits
   for the same grid, and bump the served-sweep counters. *)
let test_loopback_sweep_streams () =
  with_loopback_server @@ fun port ->
  let grid = "{\"model\":[0.005,0.01],\"trials\":[2,2]}" in
  let all =
    with_client port @@ fun fd ->
    send_all fd
      (Printf.sprintf
         "POST /sweep HTTP/1.1\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s"
         (String.length grid) grid);
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
      end
    in
    drain ();
    Buffer.contents buf
  in
  let head_end =
    let rec find i =
      if i + 4 > String.length all then Alcotest.fail "no head terminator"
      else if String.sub all i 4 = "\r\n\r\n" then i
      else find (i + 1)
    in
    find 0
  in
  let head = String.lowercase_ascii (String.sub all 0 head_end) in
  Alcotest.(check bool) "status 200" true (contains head "http/1.1 200");
  Alcotest.(check bool) "chunked" true (contains head "transfer-encoding: chunked");
  Alcotest.(check bool) "no content-length" false (contains head "content-length");
  Alcotest.(check bool) "ndjson" true (contains head "content-type: application/x-ndjson");
  Alcotest.(check bool) "trace id" true (contains head "x-trace-id:");
  let raw = String.sub all (head_end + 4) (String.length all - head_end - 4) in
  let body =
    match Server.Http.read_chunked_body (Server.Http.conn_of_string raw) with
    | Ok b -> b
    | Error _ -> Alcotest.fail "response body is not well-formed chunked"
  in
  let expected =
    let axes =
      List.map
        (fun (k, raws) ->
          match Stormsim.Sweep.axis_of_raw k raws with
          | Ok a -> a
          | Error e -> Alcotest.fail e)
        [ ("model", [ Stormsim.Sweep.Num 0.005; Stormsim.Sweep.Num 0.01 ]);
          ("trials", [ Stormsim.Sweep.Num 2.0; Stormsim.Sweep.Num 2.0 ]) ]
    in
    let cells =
      match Stormsim.Sweep.expand axes with
      | Ok cells -> cells
      | Error e -> Alcotest.fail e
    in
    let buf = Buffer.create 4096 in
    let _ =
      Stormsim.Sweep.run ~jobs:1 ~cells ()
        ~emit:(fun r -> Buffer.add_string buf (Stormsim.Sweep.row_line r))
    in
    Buffer.contents buf
  in
  Alcotest.(check string) "socket bytes = engine bytes" expected body;
  Alcotest.(check int) "served cells counted" 4 (counter_value "server.sweep.cells");
  Alcotest.(check int) "served rows counted" 4
    (counter_value "server.sweep.rows_streamed");
  Alcotest.(check int) "served plans counted" 2
    (counter_value "server.sweep.plans_compiled")

(* --- /statusz --- *)

let jmem path doc =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some doc) path

let jnum path doc = Option.bind (jmem path doc) Obs.Json.number

let test_statusz_shape () =
  with_server_state @@ fun () ->
  let routes = Server.Handlers.routes () in
  let resp = Server.Router.to_response (Server.Router.dispatch ~routes (request "/statusz")) in
  Alcotest.(check int) "status" 200 resp.Server.Http.status;
  match Obs.Json.parse resp.Server.Http.body with
  | Error e -> Alcotest.fail ("statusz unparseable: " ^ e)
  | Ok doc ->
      Alcotest.(check (option string)) "status ok" (Some "ok")
        (Option.bind (Obs.Json.member "status" doc) Obs.Json.string_);
      Alcotest.(check bool) "uptime counts" true
        (match jnum [ "uptime_s" ] doc with Some v -> v >= 0.0 | None -> false);
      List.iter
        (fun path ->
          Alcotest.(check bool) (String.concat "." path ^ " present") true
            (jnum path doc <> None))
        [
          [ "requests"; "total" ];
          [ "requests"; "2xx" ];
          [ "requests"; "rejected_busy" ];
          [ "latency_ms"; "count" ];
          [ "cache"; "entries" ];
          [ "cache"; "capacity" ];
          [ "cache"; "hits" ];
          [ "gc"; "heap_words" ];
        ];
      (* No traffic yet: quantiles have nothing to estimate. *)
      Alcotest.(check bool) "empty latency p50 is null" true
        (jmem [ "latency_ms"; "p50" ] doc = Some Obs.Json.Null)

let test_statusz_end_to_end () =
  with_loopback_server @@ fun port ->
  let s, _, _ = post_simulate port "{\"trials\":2,\"seed\":9}" in
  Alcotest.(check int) "simulate ok" 200 s;
  let status, _, body =
    with_client port @@ fun fd ->
    send_all fd "GET /statusz HTTP/1.1\r\nconnection: close\r\n\r\n";
    read_response fd
  in
  Alcotest.(check int) "statusz status" 200 status;
  match Obs.Json.parse body with
  | Error e -> Alcotest.fail ("statusz unparseable: " ^ e)
  | Ok doc ->
      Alcotest.(check bool) "requests counted" true
        (match jnum [ "requests"; "total" ] doc with Some v -> v >= 2.0 | None -> false);
      Alcotest.(check bool) "latency observed" true
        (match jnum [ "latency_ms"; "count" ] doc with Some v -> v >= 1.0 | None -> false);
      Alcotest.(check bool) "p50 estimated" true (jnum [ "latency_ms"; "p50" ] doc <> None);
      Alcotest.(check (option (float 1e-9))) "one cache entry" (Some 1.0)
        (jnum [ "cache"; "entries" ] doc)

(* --- cache occupancy gauge --- *)

let gauge_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Gauge v) -> Some v
  | _ -> None

let test_cache_entries_gauge () =
  with_server_state @@ fun () ->
  Alcotest.(check (option (float 1e-9))) "starts empty" (Some 0.0)
    (gauge_value "server.cache.entries");
  ignore (Server.Api.with_cache ~key:"g1" (fun () -> Ok "x"));
  ignore (Server.Api.with_cache ~key:"g2" (fun () -> Ok "y"));
  Alcotest.(check (option (float 1e-9))) "tracks additions" (Some 2.0)
    (gauge_value "server.cache.entries");
  (* Hits do not change occupancy. *)
  ignore (Server.Api.with_cache ~key:"g1" (fun () -> Ok "x"));
  Alcotest.(check (option (float 1e-9))) "hit leaves it" (Some 2.0)
    (gauge_value "server.cache.entries");
  Server.Api.reset ();
  Alcotest.(check (option (float 1e-9))) "reset clears it" (Some 0.0)
    (gauge_value "server.cache.entries")

(* --- trace ids --- *)

let header_value head name =
  let needle = String.lowercase_ascii name ^ ":" in
  let nn = String.length needle in
  String.split_on_char '\n' (String.lowercase_ascii head)
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.length line > nn && String.sub line 0 nn = needle then
           Some (String.trim (String.sub line nn (String.length line - nn)))
         else None)

let is_hex16 s =
  String.length s = 16
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s

let get_response port path =
  with_client port @@ fun fd ->
  send_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nconnection: close\r\n\r\n" path);
  read_response fd

let test_trace_id_header () =
  let first_of_run () =
    with_loopback_server ~trace_seed:42 @@ fun port ->
    let _, h1, _ = get_response port "/healthz" in
    let _, h2, _ = get_response port "/healthz" in
    let id h =
      match header_value h "x-trace-id" with
      | Some s -> s
      | None -> Alcotest.fail "response carries no X-Trace-Id"
    in
    Alcotest.(check bool) "16 hex chars" true (is_hex16 (id h1) && is_hex16 (id h2));
    Alcotest.(check bool) "distinct per request" false (String.equal (id h1) (id h2));
    id h1
  in
  (* Same seed, fresh server: the n-th request gets the same id. *)
  Alcotest.(check string) "deterministic under --trace-seed" (first_of_run ())
    (first_of_run ())

let test_access_log_matches_trace_header () =
  let log_buf = Buffer.create 512 in
  let log_lock = Mutex.create () in
  Obs.Log.enable ();
  Obs.Log.set_sink (fun s ->
      Mutex.lock log_lock;
      Buffer.add_string log_buf s;
      Mutex.unlock log_lock);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.disable ();
      Obs.Log.set_sink (fun s ->
          output_string stderr s;
          flush stderr))
    (fun () ->
      with_loopback_server ~trace_seed:7 @@ fun port ->
      let status, head, _ = post_simulate port "{\"trials\":2,\"seed\":5}" in
      Alcotest.(check int) "simulate ok" 200 status;
      let id =
        match header_value head "x-trace-id" with
        | Some s -> s
        | None -> Alcotest.fail "no X-Trace-Id header"
      in
      let captured =
        Mutex.lock log_lock;
        let s = Buffer.contents log_buf in
        Mutex.unlock log_lock;
        s
      in
      let access =
        String.split_on_char '\n' (String.trim captured)
        |> List.filter (fun l -> contains l "\"event\":\"http.access\"")
      in
      Alcotest.(check int) "one access line" 1 (List.length access);
      match Obs.Json.parse (List.hd access) with
      | Error e -> Alcotest.fail ("access line unparseable: " ^ e)
      | Ok doc ->
          let str k = Option.bind (Obs.Json.member k doc) Obs.Json.string_ in
          Alcotest.(check (option string)) "log trace = header trace" (Some id)
            (str "trace");
          Alcotest.(check (option string)) "method" (Some "POST") (str "method");
          Alcotest.(check (option string)) "path" (Some "/simulate") (str "path");
          Alcotest.(check (option string)) "cold request is a miss" (Some "miss")
            (str "cache");
          Alcotest.(check (option (float 1e-9))) "status" (Some 200.0)
            (Option.bind (Obs.Json.member "status" doc) Obs.Json.number))

(* --- load generator --- *)

let test_loadgen_parse_url () =
  (match Server.Loadgen.parse_url "http://127.0.0.1:8080" with
  | Ok t ->
      Alcotest.(check string) "host" "127.0.0.1" t.Server.Loadgen.host;
      Alcotest.(check int) "port" 8080 t.Server.Loadgen.port;
      Alcotest.(check string) "default path" "/" t.Server.Loadgen.path
  | Error e -> Alcotest.fail e);
  (match Server.Loadgen.parse_url "http://localhost:9/metrics" with
  | Ok t ->
      Alcotest.(check string) "path kept" "/metrics" t.Server.Loadgen.path;
      Alcotest.(check int) "small port" 9 t.Server.Loadgen.port
  | Error e -> Alcotest.fail e);
  List.iter
    (fun url ->
      match Server.Loadgen.parse_url url with
      | Ok _ -> Alcotest.fail ("accepted " ^ url)
      | Error e -> Alcotest.(check bool) "names the shape" true (contains e "HOST:PORT"))
    [ "https://x:1"; "http://noport"; "http://:8080"; "http://h:0"; "http://h:99999"; "http://h:x"; "" ]

let test_loadgen_quantile_exact () =
  let s = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "q0 is min" 1.0 (Server.Loadgen.quantile_exact s 0.0);
  Alcotest.(check (float 1e-9)) "q1 is max" 4.0 (Server.Loadgen.quantile_exact s 1.0);
  Alcotest.(check (float 1e-9)) "median interpolates" 2.5 (Server.Loadgen.quantile_exact s 0.5);
  Alcotest.(check (float 1e-9)) "q25" 1.75 (Server.Loadgen.quantile_exact s 0.25);
  Alcotest.(check (float 1e-9)) "single sample" 7.0
    (Server.Loadgen.quantile_exact [| 7.0 |] 0.99);
  Alcotest.check_raises "empty" (Invalid_argument "Loadgen.quantile_exact: no samples")
    (fun () -> ignore (Server.Loadgen.quantile_exact [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Loadgen.quantile_exact: q outside [0, 1]") (fun () ->
      ignore (Server.Loadgen.quantile_exact s 1.5))

let test_loadgen_end_to_end () =
  with_loopback_server @@ fun port ->
  let target = { Server.Loadgen.host = "127.0.0.1"; port; path = "/healthz" } in
  let r = Server.Loadgen.run ~connections:2 ~pipeline:2 ~requests:10 ~body:None target in
  Alcotest.(check int) "all requests completed" 10 r.Server.Loadgen.requests;
  Alcotest.(check int) "no errors" 0 r.Server.Loadgen.errors;
  Alcotest.(check int) "one latency per request" 10
    (Array.length r.Server.Loadgen.latencies_ns);
  Alcotest.(check int) "healthz body bytes" (10 * String.length "{\"status\":\"ok\"}\n")
    r.Server.Loadgen.bytes;
  Alcotest.(check bool) "elapsed counts" true (r.Server.Loadgen.elapsed_s > 0.0);
  Alcotest.(check bool) "throughput computed" true (Server.Loadgen.req_per_s r > 0.0);
  let l = r.Server.Loadgen.latencies_ns in
  Array.iteri
    (fun i v -> if i > 0 then Alcotest.(check bool) "latencies sorted" true (l.(i - 1) <= v))
    l;
  (* The report is a parseable solarstorm-bench/1 document. *)
  (match Obs.Json.parse (Server.Loadgen.to_bench_json r) with
  | Error e -> Alcotest.fail ("bench doc unparseable: " ^ e)
  | Ok doc ->
      Alcotest.(check (option string)) "schema" (Some "solarstorm-bench/1")
        (Option.bind (Obs.Json.member "schema" doc) Obs.Json.string_);
      Alcotest.(check (option string)) "mode" (Some "loadgen")
        (Option.bind (Obs.Json.member "mode" doc) Obs.Json.string_);
      let kernel_names =
        match Option.bind (Obs.Json.member "kernels" doc) Obs.Json.array with
        | Some ks ->
            List.filter_map
              (fun k -> Option.bind (Obs.Json.member "name" k) Obs.Json.string_)
              ks
        | None -> []
      in
      List.iter
        (fun n -> Alcotest.(check bool) (n ^ " kernel") true (List.mem n kernel_names))
        [ "loadgen.latency-mean"; "loadgen.latency-p50"; "loadgen.latency-p95";
          "loadgen.latency-p99"; "loadgen.ns-per-request" ];
      Alcotest.(check (option (float 1e-9))) "request metric" (Some 10.0)
        (jnum [ "metrics"; "loadgen.requests" ] doc));
  let line = Server.Loadgen.summary r in
  Alcotest.(check bool) "summary req/s" true (contains line "req/s");
  Alcotest.(check bool) "summary p99" true (contains line "p99")

let test_loadgen_counts_failures () =
  with_loopback_server @@ fun port ->
  (* POSTs through the analysis path complete... *)
  let target = { Server.Loadgen.host = "127.0.0.1"; port; path = "/simulate" } in
  let ok =
    Server.Loadgen.run ~requests:4 ~body:(Some "{\"trials\":2,\"seed\":3}") target
  in
  Alcotest.(check int) "posts completed" 4 ok.Server.Loadgen.requests;
  Alcotest.(check int) "no errors" 0 ok.Server.Loadgen.errors;
  (* ...while a 404 target forfeits the connection's remaining share. *)
  let bad =
    Server.Loadgen.run ~requests:3 ~body:None
      { target with Server.Loadgen.path = "/nope" }
  in
  Alcotest.(check int) "nothing completed" 0 bad.Server.Loadgen.requests;
  Alcotest.(check int) "all forfeited" 3 bad.Server.Loadgen.errors;
  Alcotest.check_raises "bad requests count"
    (Invalid_argument "Loadgen.run: requests <= 0") (fun () ->
      ignore (Server.Loadgen.run ~requests:0 ~body:None target))

(* --- sharded LRU --- *)

let test_sharded_clamps_and_orders () =
  let t : int Server.Lru.Sharded.t = Server.Lru.Sharded.create ~shards:8 ~capacity:3 () in
  Alcotest.(check int) "shards clamp to capacity" 3 (Server.Lru.Sharded.shard_count t);
  Alcotest.(check int) "capacity kept" 3 (Server.Lru.Sharded.capacity t);
  let z : int Server.Lru.Sharded.t = Server.Lru.Sharded.create ~shards:4 ~capacity:0 () in
  Alcotest.(check int) "zero capacity: one disabled shard" 1
    (Server.Lru.Sharded.shard_count z);
  Alcotest.(check (option (pair string int))) "zero capacity drops" None
    (Server.Lru.Sharded.add z "a" 1);
  Alcotest.(check int) "zero stays empty" 0 (Server.Lru.Sharded.length z);
  (* One shard = exactly the plain LRU's global recency semantics. *)
  let s1 = Server.Lru.Sharded.create ~shards:1 ~capacity:2 () in
  ignore (Server.Lru.Sharded.add s1 "a" 1);
  ignore (Server.Lru.Sharded.add s1 "b" 2);
  Alcotest.(check (option int)) "find promotes" (Some 1) (Server.Lru.Sharded.find s1 "a");
  Alcotest.(check (option (pair string int))) "lru evicted" (Some ("b", 2))
    (Server.Lru.Sharded.add s1 "c" 3);
  Alcotest.(check (list string)) "recency order" [ "c"; "a" ]
    (Server.Lru.Sharded.keys_newest_first s1);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.Sharded.create: negative capacity") (fun () ->
      ignore (Server.Lru.Sharded.create ~capacity:(-1) () : int Server.Lru.Sharded.t))

let test_sharded_multi_domain_stress () =
  let domains = 4 and keys_per = 40 and rounds = 5 in
  let key d i = Printf.sprintf "d%d-k%03d" d i in
  (* Phase 1: every shard's slice exceeds the whole key population
     (capacity is partitioned across shards, so hash skew could
     otherwise evict) — no entry may be lost or corrupted, from any
     domain's point of view, at any time. *)
  let big : int Server.Lru.Sharded.t =
    Server.Lru.Sharded.create ~shards:8 ~capacity:(domains * keys_per * 8) ()
  in
  let doms =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              for i = 0 to keys_per - 1 do
                ignore (Server.Lru.Sharded.add big (key d i) ((d * 1000) + i));
                match Server.Lru.Sharded.find big (key d i) with
                | Some v when v = (d * 1000) + i -> ()
                | Some _ -> failwith "wrong value under concurrency"
                | None -> failwith "entry lost under concurrency"
              done
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no entries lost" (domains * keys_per)
    (Server.Lru.Sharded.length big);
  for d = 0 to domains - 1 do
    for i = 0 to keys_per - 1 do
      if Server.Lru.Sharded.find big (key d i) <> Some ((d * 1000) + i) then
        Alcotest.fail (Printf.sprintf "key %s lost after join" (key d i))
    done
  done;
  (* Phase 2: heavy eviction pressure — the capacity bound must hold at
     every observable moment, and every add must be accounted for:
     resident at the end or reported evicted exactly once. *)
  let cap = 16 and adds_per = 200 in
  let small : int Server.Lru.Sharded.t =
    Server.Lru.Sharded.create ~shards:4 ~capacity:cap ()
  in
  let doms =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let evicted = ref 0 in
            for i = 0 to adds_per - 1 do
              (match Server.Lru.Sharded.add small (Printf.sprintf "s%d-%04d" d i) i with
              | Some _ -> incr evicted
              | None -> ());
              if i land 31 = 0 && Server.Lru.Sharded.length small > cap then
                failwith "capacity exceeded under concurrency"
            done;
            !evicted))
  in
  let evictions = List.fold_left (fun a d -> a + Domain.join d) 0 doms in
  let len = Server.Lru.Sharded.length small in
  Alcotest.(check bool) "capacity never exceeded" true (len <= cap);
  Alcotest.(check int) "adds = resident + evicted" (domains * adds_per) (len + evictions)

let test_cache_counters_concurrent () =
  with_server_state @@ fun () ->
  Server.Api.set_cache_capacity 128;
  let key = "concurrent-key" in
  (match Server.Api.with_cache ~key (fun () -> Ok "warm") with
  | Ok "warm" -> ()
  | _ -> Alcotest.fail "warm miss failed");
  let clients = 4 and reps = 25 in
  let doms =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to reps do
              match Server.Api.with_cache ~key (fun () -> Ok "never") with
              | Ok "warm" -> ()
              | Ok _ -> failwith "hit returned wrong bytes"
              | Error _ -> failwith "hit errored"
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "hits exact across domains" (clients * reps)
    (counter_value "server.cache.hits");
  Alcotest.(check int) "one miss" 1 (counter_value "server.cache.misses");
  (* Disjoint keys from concurrent domains: one miss each, no losses. *)
  let per = 20 in
  let doms =
    List.init clients (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore
                (Server.Api.with_cache ~key:(Printf.sprintf "c%d-%d" d i) (fun () -> Ok "v"))
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "misses exact" (1 + (clients * per))
    (counter_value "server.cache.misses");
  Alcotest.(check int) "no evictions" 0 (counter_value "server.cache.evictions");
  Alcotest.(check int) "occupancy exact" (1 + (clients * per)) (Server.Api.cache_length ())

(* --- worker pool e2e --- *)

let post_path port path body =
  with_client port @@ fun fd ->
  send_all fd
    (Printf.sprintf
       "POST %s HTTP/1.1\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s"
       path (String.length body) body);
  read_response fd

let test_workers_byte_identity () =
  let fetch_all ~workers =
    with_loopback_server ~workers @@ fun port ->
    List.map
      (fun (path, body) ->
        let status, _, resp = post_path port path body in
        Alcotest.(check int) (path ^ " ok") 200 status;
        resp)
      [
        ("/simulate", "{\"trials\":4,\"seed\":11}");
        ("/scenario", "{\"event\":\"carrington\",\"trials\":3}");
        ("/countries", "{\"trials\":3}");
      ]
  in
  let single = fetch_all ~workers:1 in
  let pooled = fetch_all ~workers:4 in
  List.iter2
    (fun a b -> Alcotest.(check string) "workers=1 and workers=4 bytes equal" a b)
    single pooled

let test_workers_concurrent_cache_hits () =
  with_loopback_server ~workers:4 @@ fun port ->
  let body = "{\"trials\":4,\"seed\":11}" in
  let s0, _, warm = post_simulate port body in
  Alcotest.(check int) "warm ok" 200 s0;
  let trials_after_warm = counter_value "plan.trials" in
  let clients = 4 and reps = 8 in
  let doms =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            List.init reps (fun _ ->
                let status, head, resp = post_simulate port body in
                (status, header_value head "x-trace-id", resp))))
  in
  let results = List.concat_map Domain.join doms in
  List.iter
    (fun (status, _, resp) ->
      Alcotest.(check int) "concurrent repeat ok" 200 status;
      Alcotest.(check string) "bytes match warm response" warm resp)
    results;
  let ids = List.filter_map (fun (_, id, _) -> id) results in
  Alcotest.(check int) "every response carries a trace id" (clients * reps)
    (List.length ids);
  Alcotest.(check int) "trace ids distinct across concurrent requests" (clients * reps)
    (List.length (List.sort_uniq String.compare ids));
  Alcotest.(check int) "hits counted exactly once per repeat" (clients * reps)
    (counter_value "server.cache.hits");
  Alcotest.(check int) "trials never re-ran" trials_after_warm (counter_value "plan.trials")

let test_statusz_worker_rows () =
  with_loopback_server ~workers:2 @@ fun port ->
  for _ = 1 to 3 do
    ignore (get_response port "/healthz")
  done;
  let status, _, body = get_response port "/statusz" in
  Alcotest.(check int) "statusz ok" 200 status;
  match Obs.Json.parse body with
  | Error e -> Alcotest.fail ("statusz unparseable: " ^ e)
  | Ok doc -> (
      let total = jnum [ "requests"; "total" ] doc in
      match Option.bind (Obs.Json.member "workers" doc) Obs.Json.array with
      | None | Some [] -> Alcotest.fail "no workers array"
      | Some rows ->
          (* The snapshot is taken inside the /statusz request itself,
             after both counters were bumped, so the rows sum to the
             total including this very request. *)
          let sum =
            List.fold_left
              (fun acc row ->
                acc
                +. Option.value ~default:0.0
                     (Option.bind (Obs.Json.member "requests" row) Obs.Json.number))
              0.0 rows
          in
          Alcotest.(check (option (float 1e-9))) "worker requests sum to total" total
            (Some sum);
          List.iter
            (fun row ->
              Alcotest.(check bool) "busy_ms present" true
                (Option.bind (Obs.Json.member "busy_ms" row) Obs.Json.number <> None))
            rows)

let test_loadgen_concurrency_exceeds_workers () =
  with_loopback_server ~workers:2 @@ fun port ->
  let target = { Server.Loadgen.host = "127.0.0.1"; port; path = "/healthz" } in
  let r = Server.Loadgen.run ~connections:4 ~pipeline:2 ~requests:40 ~body:None target in
  Alcotest.(check int) "all completed" 40 r.Server.Loadgen.requests;
  Alcotest.(check int) "no errors" 0 r.Server.Loadgen.errors

(* --- loadgen warmup --- *)

let test_loadgen_warmup_excluded () =
  with_loopback_server @@ fun port ->
  let target = { Server.Loadgen.host = "127.0.0.1"; port; path = "/healthz" } in
  let r =
    Server.Loadgen.run ~connections:2 ~warmup:3 ~requests:10 ~body:None target
  in
  Alcotest.(check int) "measured requests" 10 r.Server.Loadgen.requests;
  Alcotest.(check int) "warmup counted separately" 6 r.Server.Loadgen.warmup;
  Alcotest.(check int) "no errors" 0 r.Server.Loadgen.errors;
  Alcotest.(check int) "one latency per measured request" 10
    (Array.length r.Server.Loadgen.latencies_ns);
  (* The server saw warmup + measured requests; the report excludes the
     warmup ones. *)
  Alcotest.(check int) "server served every request" 16 (counter_value "server.requests");
  (* The bench document carries the warmup count for provenance. *)
  let doc =
    match Obs.Json.parse (String.trim (Server.Loadgen.to_bench_json r)) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option (float 1e-9))) "warmup metric" (Some 6.0)
    (jnum [ "metrics"; "loadgen.warmup" ] doc)

(* --- windowed self-monitoring: /varz, /alertz, /dashboard --- *)

let parse_json body =
  match Obs.Json.parse body with Ok d -> d | Error e -> Alcotest.fail e

let test_varz_end_to_end () =
  with_loopback_server @@ fun port ->
  (* Traffic first, so the windowed series have something to show. *)
  for _ = 1 to 5 do
    ignore (get_response port "/healthz")
  done;
  let status, _, body = get_response port "/varz?window=60s" in
  Alcotest.(check int) "varz status" 200 status;
  let doc = parse_json body in
  Alcotest.(check (option (float 1e-9))) "window echoed" (Some 60.0)
    (jnum [ "window_s" ] doc);
  (match jnum [ "samples" ] doc with
  | Some n -> Alcotest.(check bool) "has samples" true (n >= 1.0)
  | None -> Alcotest.fail "no samples field");
  (match jmem [ "series"; "server.requests" ] doc with
  | Some s ->
      Alcotest.(check (option string)) "counter kind" (Some "counter")
        (Option.bind (Obs.Json.member "kind" s) Obs.Json.string_)
  | None -> Alcotest.fail "server.requests series missing");
  (match jmem [ "series"; "server.request.ms"; "p99" ] doc with
  | Some _ -> ()
  | None -> Alcotest.fail "histogram series missing p99");
  (* A second scrape one more sample in: the ring grew. *)
  let _, _, body2 = get_response port "/varz?window=60s" in
  (match (jnum [ "samples" ] doc, jnum [ "samples" ] (parse_json body2)) with
  | Some a, Some b -> Alcotest.(check bool) "ring grows across scrapes" true (b > a)
  | _ -> Alcotest.fail "samples missing");
  (* After requests flowed between scrapes, the window sees a rate. *)
  (match jnum [ "series"; "server.requests"; "rate_per_s" ] (parse_json body2) with
  | Some r -> Alcotest.(check bool) "windowed rate positive" true (r > 0.0)
  | None -> Alcotest.fail "rate missing");
  let bad_status, _, _ = get_response port "/varz?window=banana" in
  Alcotest.(check int) "bad window is 400" 400 bad_status

let test_alertz_fire_and_resolve_end_to_end () =
  (* A throughput objective ("stay under 100 req/s") over a tiny
     window, sampled fast: a request burst fires it, quiet polling
     resolves it.  (A latency rule would never resolve here — the
     /alertz polls themselves feed server.request.ms.) *)
  with_loopback_server ~sampler_step:0.05 ~slo:[ "server.requests:rate<100:1s" ]
  @@ fun port ->
  let deadline = Unix.gettimeofday () +. 15.0 in
  let alert_state () =
    let status, _, body = get_response port "/alertz" in
    Alcotest.(check int) "alertz status" 200 status;
    let doc = parse_json body in
    match jmem [ "rules" ] doc with
    | Some (Obs.Json.Array [ rule ]) ->
        ( Option.bind (Obs.Json.member "state" rule) Obs.Json.string_,
          jnum [ "firing" ] doc )
    | _ -> Alcotest.fail "expected exactly one rule"
  in
  (match alert_state () with
  | Some "ok", Some 0.0 -> ()
  | st, _ -> Alcotest.fail (Printf.sprintf "initial state %s" (Option.value ~default:"?" st)));
  let rec await want ~burst ~pause =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail (Printf.sprintf "alert never became %s" want)
    else begin
      for _ = 1 to burst do
        ignore (get_response port "/healthz")
      done;
      Unix.sleepf pause;
      match alert_state () with
      | Some st, _ when st = want -> ()
      | _ -> await want ~burst ~pause
    end
  in
  (* ~600 req/s of bursts: both burn-rate windows breach the objective. *)
  await "firing" ~burst:30 ~pause:0.05;
  (match alert_state () with
  | _, Some f -> Alcotest.(check (float 1e-9)) "firing count" 1.0 f
  | _ -> Alcotest.fail "no firing count");
  (* Quiet polling (~3 req/s) sits far under the objective: the short
     window recovers and the alert resolves. *)
  await "ok" ~burst:0 ~pause:0.3

let test_dashboard_end_to_end () =
  with_loopback_server @@ fun port ->
  for _ = 1 to 3 do
    ignore (get_response port "/healthz")
  done;
  let status, head, body = get_response port "/dashboard" in
  Alcotest.(check int) "dashboard status" 200 status;
  (match header_value head "content-type" with
  | Some ct -> Alcotest.(check bool) "text/html" true (contains ct "text/html")
  | None -> Alcotest.fail "no content type");
  Alcotest.(check bool) "has sparkline svg" true (contains body "<svg");
  Alcotest.(check bool) "names a server metric" true (contains body "server.requests");
  let bad_status, _, _ = get_response port "/dashboard?window=nope" in
  Alcotest.(check int) "bad window is 400" 400 bad_status

let test_statusz_build_and_alerts_blocks () =
  with_loopback_server ~slo:[ "server.request.ms:p99<50:5m" ] @@ fun port ->
  let status, _, body = get_response port "/statusz" in
  Alcotest.(check int) "statusz status" 200 status;
  let doc = parse_json body in
  Alcotest.(check (option string)) "version" (Some Server.Handlers.version)
    (Option.bind (jmem [ "build"; "version" ] doc) Obs.Json.string_);
  Alcotest.(check (option string)) "ocaml version" (Some Sys.ocaml_version)
    (Option.bind (jmem [ "build"; "ocaml" ] doc) Obs.Json.string_);
  Alcotest.(check (option (float 1e-9))) "worker count" (Some 1.0)
    (jnum [ "build"; "workers" ] doc);
  (match jnum [ "build"; "sampler_step_s" ] doc with
  | Some _ -> ()
  | None -> Alcotest.fail "sampler step missing");
  Alcotest.(check (option (float 1e-9))) "alert rules counted" (Some 1.0)
    (jnum [ "alerts"; "rules" ] doc);
  Alcotest.(check (option (float 1e-9))) "none firing" (Some 0.0)
    (jnum [ "alerts"; "firing" ] doc)

let test_http_query_params () =
  let req target =
    { Server.Http.meth = GET; target; version = "HTTP/1.1"; headers = []; body = "" }
  in
  Alcotest.(check (list (pair string string))) "no query" []
    (Server.Http.query_params (req "/varz"));
  Alcotest.(check (list (pair string string))) "pairs" [ ("window", "60s"); ("raw", "") ]
    (Server.Http.query_params (req "/varz?window=60s&raw"));
  Alcotest.(check (option string)) "lookup" (Some "60s")
    (Server.Http.query_param (req "/varz?window=60s") "window");
  Alcotest.(check (option string)) "missing" None
    (Server.Http.query_param (req "/varz?window=60s") "step");
  Alcotest.(check string) "path drops query" "/varz"
    (Server.Http.path (req "/varz?window=60s"))

(* --- solarstorm top (pure rendering) --- *)

let test_top_render_frame () =
  let statusz =
    parse_json
      "{\"build\":{\"version\":\"1.0.0\",\"workers\":4},\"uptime_s\":12.5,\
       \"requests\":{\"total\":420},\"cache\":{\"hits\":7,\"misses\":3,\"entries\":2},\
       \"alerts\":{\"rules\":1,\"firing\":1}}"
  in
  let varz =
    parse_json
      "{\"window_s\":60.0,\"samples\":9,\"series\":{\
       \"server.requests\":{\"kind\":\"counter\",\"rate_per_s\":33.5,\
       \"points\":[[-2.0,10.0],[-1.0,20.0],[0.0,30.0]]},\
       \"server.request.ms\":{\"kind\":\"histogram\",\"p50\":0.2,\"p95\":0.9,\
       \"p99\":1.5,\"p99_points\":[[-1.0,1.0],[0.0,1.5]]}}}"
  in
  let frame = Server.Top.render ~target:"127.0.0.1:8080" ~statusz ~varz in
  Alcotest.(check bool) "names the target" true (contains frame "127.0.0.1:8080");
  Alcotest.(check bool) "shows version" true (contains frame "v1.0.0");
  Alcotest.(check bool) "shows total" true (contains frame "420");
  Alcotest.(check bool) "shows rate" true (contains frame "33.5/s");
  Alcotest.(check bool) "shows p99" true (contains frame "1.50ms");
  Alcotest.(check bool) "flags firing alerts" true (contains frame "** FIRING **");
  (* Missing fields degrade to placeholders, never exceptions. *)
  let empty = Server.Top.render ~target:"x:1" ~statusz:Obs.Json.Null ~varz:Obs.Json.Null in
  Alcotest.(check bool) "placeholders" true (contains empty "-");
  (* Sparkline scales to its extremes. *)
  let s = Server.Top.spark [ 0.0; 1.0 ] in
  Alcotest.(check bool) "low then high" true (contains s "\xe2\x96\x81" && contains s "\xe2\x96\x88");
  Alcotest.(check string) "empty series" "" (Server.Top.spark [])

let test_top_end_to_end () =
  with_loopback_server @@ fun port ->
  ignore (get_response port "/healthz");
  let frames = Buffer.create 512 in
  (match
     Server.Top.run
       ~out:(Buffer.add_string frames)
       ~host:"127.0.0.1" ~port ~window:"60s" ~interval_s:0.01 ~count:(Some 2) ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let out = Buffer.contents frames in
  Alcotest.(check bool) "renders frames" true (contains out "solarstorm top");
  Alcotest.(check bool) "shows latency row" true (contains out "latency");
  (* Not a tty here: no ANSI clear codes in redirected output. *)
  Alcotest.(check bool) "no escape codes" false (contains out "\027[")

(* --- event loops: trace ids, the fd guard, pipelining properties --- *)

(* The first three ids a --workers 1 server hands out under
   --trace-seed 42, recorded from the acceptor-and-pool server these
   loops replaced: loop 0's stream is the single-loop stream. *)
let test_trace_ids_golden () =
  with_loopback_server ~trace_seed:42 ~workers:1 @@ fun port ->
  let ids =
    List.init 3 (fun _ ->
        let _, head, _ = get_response port "/healthz" in
        header_value head "x-trace-id")
  in
  Alcotest.(check (list (option string)))
    "ids match the single-loop stream"
    [ Some "989b3f130a063869"; Some "290db4bf2570ded7"; Some "2a990be63a01b2d5" ]
    ids

(* select() cannot watch a descriptor at or above FD_SETSIZE, so the
   server must shed such a connection with a 503 instead of crashing in
   select, and keep serving once descriptors free up. *)
let test_fd_setsize_guard () =
  with_loopback_server @@ fun port ->
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let held = ref [ null ] in
  let release () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ()) !held;
    held := []
  in
  Fun.protect ~finally:release @@ fun () ->
  (* [dup] returns the lowest free descriptor, so once it hands out
     1023 every lower one is taken and the next socket lands at 1024 or
     above — on both ends of the loopback connection. *)
  let rec fill () =
    match Unix.dup ~cloexec:true null with
    | fd ->
        held := fd :: !held;
        if Server.Service.fd_index fd < 1023 then fill () else `Filled
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> `Limit
  in
  match fill () with
  | `Limit ->
      print_endline "skipped: RLIMIT_NOFILE is too low to reach descriptor 1024";
      release ();
      Alcotest.skip ()
  | `Filled ->
      let busy_before = counter_value "server.rejected.busy" in
      (* A server that died in select() would leave this read hanging;
         the receive timeout turns that into a failure. *)
      let status, _, _ =
        with_client port @@ fun fd ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        send_all fd "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
        read_response fd
      in
      Alcotest.(check int) "connection past FD_SETSIZE is shed" 503 status;
      Alcotest.(check int) "shed counted as busy" (busy_before + 1)
        (counter_value "server.rejected.busy");
      release ();
      let status, _, body = get_response port "/healthz" in
      Alcotest.(check int) "served again once descriptors free up" 200 status;
      Alcotest.(check string) "healthz body" "{\"status\":\"ok\"}\n" body

let valid_request_gen =
  let open QCheck.Gen in
  let printable = map Char.chr (int_range 32 126) in
  oneof
    [
      return "GET /healthz HTTP/1.1\r\n\r\n";
      map (fun q -> "GET /statusz?window=" ^ q ^ " HTTP/1.1\r\nx-a: 1\r\n\r\n")
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
      map
        (fun body ->
          Printf.sprintf "POST /simulate HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
            (String.length body) body)
        (string_size ~gen:printable (int_range 0 64));
    ]

(* Cut [s] at the given offsets (taken modulo its length). *)
let split_at s cuts =
  let n = String.length s in
  let cuts =
    List.sort_uniq compare (List.filter (fun i -> i > 0 && i < n) (List.map (fun c -> c mod (n + 1)) cuts))
  in
  let rec go from = function
    | [] -> [ String.sub s from (n - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

(* Every request [parse_request] yields before its first error, plus
   that error; it must never raise. *)
let parse_all conn =
  let rec go acc =
    match Server.Http.parse_request conn with
    | Ok req -> go (req :: acc)
    | Error e -> (List.rev acc, e)
  in
  go []

(* Write [chunks] into one end of a socketpair from another domain,
   pausing between writes so the reader sees them as separate reads,
   then half-close; parse everything off the other end. *)
let parse_over_socketpair chunks =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      try Unix.close w with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      let writer =
        Domain.spawn (fun () ->
            List.iter
              (fun chunk ->
                send_all w chunk;
                Unix.sleepf 0.0002)
              chunks;
            Unix.shutdown w Unix.SHUTDOWN_SEND)
      in
      let result = parse_all (Server.Http.conn_of_fd ~timeout_s:5.0 r) in
      Domain.join writer;
      result)

let prop_parse_split_invariant =
  QCheck.Test.make ~name:"parse_request is invariant under write splits" ~count:60
    QCheck.(
      make
        ~print:(fun (reqs, cuts) ->
          Printf.sprintf "%S cut at [%s]" (String.concat "" reqs)
            (String.concat ";" (List.map string_of_int cuts)))
        Gen.(pair (list_size (int_range 1 5) valid_request_gen)
               (list_size (int_range 0 8) (int_range 0 1000))))
    (fun (reqs, cuts) ->
      let stream = String.concat "" reqs in
      let whole = parse_all (Server.Http.conn_of_string stream) in
      let split = parse_over_socketpair (split_at stream cuts) in
      List.length (fst whole) = List.length reqs
      && whole = (fst whole, Server.Http.Eof)
      && split = whole)

let prop_parse_total =
  (* Arbitrary bytes, and valid streams with a few bytes overwritten. *)
  let mutated =
    QCheck.Gen.(
      map2
        (fun reqs edits ->
          let b = Bytes.of_string (String.concat "" reqs) in
          List.iter
            (fun (i, c) -> if Bytes.length b > 0 then Bytes.set b (i mod Bytes.length b) c)
            edits;
          Bytes.to_string b)
        (list_size (int_range 1 3) valid_request_gen)
        (list_size (int_range 1 4) (pair (int_range 0 1000) char)))
  in
  QCheck.Test.make ~name:"parse_request never raises on arbitrary bytes" ~count:200
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(oneof [ string_size ~gen:char (int_range 0 512); mutated ]))
    (fun bytes ->
      let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          send_all w bytes;
          Unix.shutdown w Unix.SHUTDOWN_SEND;
          match parse_all (Server.Http.conn_of_fd ~timeout_s:5.0 r) with
          | _ -> true
          | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* A response without its X-Trace-Id line: the one header that differs
   between two servings of the same request. *)
let without_trace_id (status, head, body) =
  let lines =
    List.filter
      (fun line ->
        not (String.starts_with ~prefix:"x-trace-id:" (String.lowercase_ascii line)))
      (String.split_on_char '\n' head)
  in
  (status, String.concat "\n" lines, body)

(* K pipelined POST /simulate requests against two loops, written with
   random split points, get K in-order responses, byte-equal to what
   one unsplit write of the same stream gets. *)
let test_pipelined_splits_two_loops () =
  with_loopback_server ~workers:2 @@ fun port ->
  let exchange chunks k =
    with_client port @@ fun fd ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    List.iter
      (fun chunk ->
        send_all fd chunk;
        Unix.sleepf 0.0002)
      chunks;
    List.map without_trace_id (read_responses fd k)
  in
  let prop =
    QCheck.Test.make ~name:"pipelined splits against two loops" ~count:25
      QCheck.(
        make
          ~print:(fun (seeds, cuts) ->
            Printf.sprintf "seeds [%s] cut at [%s]"
              (String.concat ";" (List.map string_of_int seeds))
              (String.concat ";" (List.map string_of_int cuts)))
          Gen.(pair (list_size (int_range 1 4) (int_range 1 3))
                 (list_size (int_range 0 8) (int_range 0 2000))))
      (fun (seeds, cuts) ->
        let stream =
          String.concat ""
            (List.map
               (fun seed ->
                 let body = Printf.sprintf "{\"trials\":2,\"seed\":%d}" seed in
                 Printf.sprintf "POST /simulate HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
                   (String.length body) body)
               seeds)
        in
        let k = List.length seeds in
        let whole = exchange [ stream ] k in
        let split = exchange (split_at stream cuts) k in
        List.for_all (fun (status, _, _) -> status = 200) whole && split = whole)
  in
  QCheck.Test.check_exn prop

let () =
  Alcotest.run "server"
    [
      ( "http",
        [ Alcotest.test_case "valid GET" `Quick test_parse_valid_get;
          Alcotest.test_case "valid POST body" `Quick test_parse_valid_post_body;
          Alcotest.test_case "HTTP/1.0 closes" `Quick test_parse_http10_defaults_to_close;
          Alcotest.test_case "truncated" `Quick test_parse_truncated;
          Alcotest.test_case "garbage" `Quick test_parse_garbage;
          Alcotest.test_case "oversized" `Quick test_parse_oversized;
          Alcotest.test_case "pipelined" `Quick test_parse_pipelined;
          Alcotest.test_case "stalled peer times out" `Quick test_parse_timeout;
          Alcotest.test_case "response serialization" `Quick test_response_to_string;
          Alcotest.test_case "query params" `Quick test_http_query_params ] );
      ( "chunked",
        [ Alcotest.test_case "chunk framing" `Quick test_chunk_framing;
          Alcotest.test_case "respond_stream framing" `Quick test_respond_stream_framing;
          Alcotest.test_case "read_chunk round-trip" `Quick test_read_chunk_roundtrip;
          Alcotest.test_case "malformed chunks" `Quick test_read_chunk_malformed ] );
      ( "router",
        [ Alcotest.test_case "404" `Quick test_router_not_found;
          Alcotest.test_case "405 with allow" `Quick test_router_method_not_allowed;
          Alcotest.test_case "400 on bad body" `Quick test_router_bad_body_is_400;
          Alcotest.test_case "500 on crash" `Quick test_router_handler_crash_is_500;
          Alcotest.test_case "healthz" `Quick test_router_healthz ] );
      ( "lru",
        [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "refresh" `Quick test_lru_refresh_existing;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity_disables;
          Alcotest.test_case "sharded clamps and orders" `Quick
            test_sharded_clamps_and_orders;
          Alcotest.test_case "sharded multi-domain stress" `Quick
            test_sharded_multi_domain_stress ] );
      ( "cache",
        [ Alcotest.test_case "key canonicalization" `Quick test_cache_key_canonicalization;
          Alcotest.test_case "hit skips trials" `Quick test_cache_hit_skips_trials;
          Alcotest.test_case "errors not stored" `Quick test_cache_does_not_store_errors;
          Alcotest.test_case "eviction counted" `Quick test_cache_eviction_is_counted;
          Alcotest.test_case "counters under concurrency" `Quick
            test_cache_counters_concurrent;
          Alcotest.test_case "body decoding defaults" `Quick test_params_of_body_defaults ] );
      ( "loopback",
        [ Alcotest.test_case "end to end" `Quick test_loopback_end_to_end;
          Alcotest.test_case "garbage over socket" `Quick test_loopback_rejects_garbage;
          Alcotest.test_case "sweep streams chunked" `Quick test_loopback_sweep_streams ] );
      ( "statusz",
        [ Alcotest.test_case "shape" `Quick test_statusz_shape;
          Alcotest.test_case "end to end" `Quick test_statusz_end_to_end;
          Alcotest.test_case "cache entries gauge" `Quick test_cache_entries_gauge ] );
      ( "trace",
        [ Alcotest.test_case "X-Trace-Id header" `Quick test_trace_id_header;
          Alcotest.test_case "access log matches header" `Quick
            test_access_log_matches_trace_header ] );
      ( "loadgen",
        [ Alcotest.test_case "parse url" `Quick test_loadgen_parse_url;
          Alcotest.test_case "exact quantiles" `Quick test_loadgen_quantile_exact;
          Alcotest.test_case "end to end" `Quick test_loadgen_end_to_end;
          Alcotest.test_case "counts failures" `Quick test_loadgen_counts_failures;
          Alcotest.test_case "warmup excluded" `Quick test_loadgen_warmup_excluded ] );
      ( "workers",
        [ Alcotest.test_case "byte identity vs single worker" `Quick
            test_workers_byte_identity;
          Alcotest.test_case "concurrent cache hits" `Quick
            test_workers_concurrent_cache_hits;
          Alcotest.test_case "statusz worker rows" `Quick test_statusz_worker_rows;
          Alcotest.test_case "loadgen concurrency > workers" `Quick
            test_loadgen_concurrency_exceeds_workers ] );
      ( "monitoring",
        [ Alcotest.test_case "varz end to end" `Quick test_varz_end_to_end;
          Alcotest.test_case "alert fires and resolves" `Quick
            test_alertz_fire_and_resolve_end_to_end;
          Alcotest.test_case "dashboard" `Quick test_dashboard_end_to_end;
          Alcotest.test_case "statusz build and alerts" `Quick
            test_statusz_build_and_alerts_blocks;
          Alcotest.test_case "top renders a frame" `Quick test_top_render_frame;
          Alcotest.test_case "top end to end" `Quick test_top_end_to_end ] );
      ( "event loops",
        [ Alcotest.test_case "trace ids match the single-loop goldens" `Quick
            test_trace_ids_golden;
          Alcotest.test_case "fd past FD_SETSIZE is shed with 503" `Quick
            test_fd_setsize_guard;
          Alcotest.test_case "pipelined splits against two loops" `Quick
            test_pipelined_splits_two_loops;
          QCheck_alcotest.to_alcotest prop_parse_split_invariant;
          QCheck_alcotest.to_alcotest prop_parse_total ] );
    ]
