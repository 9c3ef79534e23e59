type t = unit -> int64

let monotonic () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let fake ?(start = 0L) ?(step = 1_000L) () =
  let now = ref start in
  fun () ->
    let v = !now in
    now := Int64.add v step;
    v
