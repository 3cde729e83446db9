let symbols = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

let symbol i = symbols.[i mod String.length symbols]

(* Past this many cells a slice is no longer readable, and its grid is
   allocated once per change point. *)
let max_cells = 1 lsl 16

let slice p ~container ~time =
  let w = Container.extent container 0 and h = Container.extent container 1 in
  if Saturating.mul w h > max_cells then
    invalid_arg
      (Printf.sprintf
         "Render.slice: a %dx%d chip is too large to draw (more than %d cells)" w h
         max_cells);
  let grid = Array.make_matrix h w '.' in
  for i = 0 to Placement.count p - 1 do
    if
      Placement.start_time p i <= time
      && time < Placement.finish_time p i
    then begin
      let o = Placement.origin p i in
      let b = Placement.box p i in
      for y = o.(1) to o.(1) + Box.extent b 1 - 1 do
        for x = o.(0) to o.(0) + Box.extent b 0 - 1 do
          if y >= 0 && y < h && x >= 0 && x < w then grid.(y).(x) <- symbol i
        done
      done
    end
  done;
  Array.to_list (Array.map (fun row -> String.init w (Array.get row)) grid)

let change_points p =
  let times = ref [] in
  for i = 0 to Placement.count p - 1 do
    times := Placement.start_time p i :: !times
  done;
  List.sort_uniq compare !times

let timeline p ~container =
  let buf = Buffer.create 256 in
  List.iter
    (fun t ->
      Buffer.add_string buf (Printf.sprintf "-- t=%d --\n" t);
      List.iter
        (fun row ->
          Buffer.add_string buf row;
          Buffer.add_char buf '\n')
        (slice p ~container ~time:t))
    (change_points p);
  Buffer.contents buf

let gantt_columns = 128

let gantt p =
  let n = Placement.count p in
  let span = Placement.makespan p in
  (* Cycles per column: one while the makespan fits the width, else the
     fewest that make it fit. *)
  let bucket = if span <= gantt_columns then 1 else ((span - 1) / gantt_columns) + 1 in
  let columns = if span <= 0 then 0 else ((span - 1) / bucket) + 1 in
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    let s = Placement.start_time p i and f = Placement.finish_time p i in
    Buffer.add_string buf (Printf.sprintf "%3d |" i);
    for c = 0 to columns - 1 do
      (* Column [c] covers cycles [t, t + bucket); [s - bucket < t] is
         [s < t + bucket] without forming the possibly wrapping sum. *)
      let t = c * bucket in
      Buffer.add_char buf (if s - bucket < t && t < f then symbol i else ' ')
    done;
    Buffer.add_string buf (Printf.sprintf "| [%d,%d)\n" s f)
  done;
  Buffer.contents buf
