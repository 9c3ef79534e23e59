let all_alive (t : As_topology.t) = Array.make t.As_topology.n true

(* Phase-layered BFS.  Phases: 0 = ascending (may still go up), 1 = just
   crossed the one allowed peer link, 2 = descending.  Transitions from
   (x, 0): provider (0), peer (1), customer (2); from (x, 1): customer (2);
   from (x, 2): customer (2). *)

(* States are [phase * n + x].  Each state is queued at most once, so an
   array of [3 n] slots is the whole queue.  With [until], the search
   stops as soon as any phase of that AS is reached. *)
let phase_bfs ?(until = -1) (t : As_topology.t) ~alive ~src =
  let n = t.As_topology.n in
  let parent = Array.make (3 * n) (-1) in
  let seen = Array.make (3 * n) false in
  let queue = Array.make (3 * n) 0 in
  let head = ref 0 and tail = ref 0 in
  let push state y phase' =
    let s = (phase' * n) + y in
    if alive.(y) && not seen.(s) then begin
      seen.(s) <- true;
      parent.(s) <- state;
      queue.(!tail) <- s;
      incr tail;
      if y = until then head := 3 * n
    end
  in
  if alive.(src) then begin
    seen.(src) <- true;
    queue.(0) <- src;
    tail := 1
  end;
  while !head < !tail do
    let state = queue.(!head) in
    incr head;
    let x = state mod n in
    if state < n then begin
      List.iter (fun p -> push state p 0) t.As_topology.providers.(x);
      List.iter (fun p -> push state p 1) t.As_topology.peers.(x);
      List.iter (fun c -> push state c 2) t.As_topology.customers.(x)
    end
    else List.iter (fun c -> push state c 2) t.As_topology.customers.(x)
  done;
  (seen, parent)

let reach_state (t : As_topology.t) seen dst =
  let n = t.As_topology.n in
  let rec find phase = if phase > 2 then None else if seen.((phase * n) + dst) then Some phase else find (phase + 1) in
  find 0

let reachable t ~alive ~src ~dst =
  if not (alive.(src) && alive.(dst)) then false
  else if src = dst then true
  else
    let seen, _ = phase_bfs ~until:dst t ~alive ~src in
    reach_state t seen dst <> None

let reachability_fraction t ~alive ~dst =
  if not alive.(dst) then 0.0
  else begin
    (* Valley-free reachability is symmetric: reversing up*(peer)?down*
       yields the same shape (each up edge reverses to a down edge).  So
       "who can reach dst" equals "whom dst can reach", and one forward
       BFS from dst suffices. *)
    let seen, _ = phase_bfs t ~alive ~src:dst in
    let n = t.As_topology.n in
    let total = ref 0 and ok = ref 0 in
    for x = 0 to n - 1 do
      if alive.(x) && x <> dst then begin
        incr total;
        if seen.(x) || seen.(n + x) || seen.((2 * n) + x) then incr ok
      end
    done;
    if !total = 0 then 0.0 else float_of_int !ok /. float_of_int !total
  end

let shortest_path t ~alive ~src ~dst =
  if not (alive.(src) && alive.(dst)) then None
  else if src = dst then Some [ src ]
  else begin
    let n = t.As_topology.n in
    let seen, parent = phase_bfs t ~alive ~src in
    match reach_state t seen dst with
    | None -> None
    | Some phase ->
        let rec build acc state =
          let x = state mod n in
          let p = parent.(state) in
          if p = -1 then x :: acc else build (x :: acc) p
        in
        Some (build [] ((phase * n) + dst))
  end

let disjoint_paths ?(k = 3) t ~alive ~src ~dst =
  let alive = Array.copy alive in
  let rec collect acc remaining =
    if remaining = 0 then List.rev acc
    else
      match shortest_path t ~alive ~src ~dst with
      | None -> List.rev acc
      | Some path ->
          List.iter (fun x -> if x <> src && x <> dst then alive.(x) <- false) path;
          collect (path :: acc) (remaining - 1)
  in
  collect [] k

let is_valley_free (t : As_topology.t) path =
  let rel a b =
    if List.mem b t.As_topology.providers.(a) then `Up
    else if List.mem b t.As_topology.customers.(a) then `Down
    else if List.mem b t.As_topology.peers.(a) then `Peer
    else `None
  in
  let rec walk phase = function
    | a :: (b :: _ as rest) -> (
        match (rel a b, phase) with
        | `Up, `Ascending -> walk `Ascending rest
        | `Peer, `Ascending -> walk `Descending rest
        | `Down, (`Ascending | `Descending) -> walk `Descending rest
        | (`Up | `Peer), `Descending -> false
        | `None, _ -> false)
    | [ _ ] | [] -> true
  in
  walk `Ascending path
