module Placement = Geometry.Placement
module Instance = Packing.Instance

(* VCD identifier codes: printable ASCII 33..126, multi-char as needed. *)
let code k =
  let alphabet = 94 in
  let rec go k acc =
    let c = Char.chr (33 + (k mod alphabet)) in
    let acc = String.make 1 c ^ acc in
    if k < alphabet then acc else go ((k / alphabet) - 1) acc
  in
  go k ""

let binary_of_int width v =
  String.init width (fun i ->
      if v land (1 lsl (width - 1 - i)) <> 0 then '1' else '0')

let of_placement inst placement ~chip ?(timescale = "1ns") () =
  let n = Instance.count inst in
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "$date reproduction run $end\n";
  add "$version fpga_place $end\n";
  add (Printf.sprintf "$timescale %s $end\n" timescale);
  add "$scope module chip $end\n";
  for i = 0 to n - 1 do
    add
      (Printf.sprintf "$var wire 1 %s %s $end\n" (code i)
         (Instance.label inst i))
  done;
  let cells = Chip.cells chip in
  let occ_width =
    let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
    bits cells 0
  in
  let occ_code = code n in
  add (Printf.sprintf "$var wire %d %s occupied_cells $end\n" occ_width occ_code);
  add "$upscope $end\n$enddefinitions $end\n";
  let makespan = Placement.makespan placement in
  let running t i =
    Placement.start_time placement i <= t && t < Placement.finish_time placement i
  in
  let occupied t =
    let total = ref 0 in
    for i = 0 to n - 1 do
      if running t i then
        total :=
          !total
          + Instance.extent inst i 0 * Instance.extent inst i 1
    done;
    !total
  in
  let prev = Array.make n false in
  let prev_occ = ref (-1) in
  (* Signals only change at the change points; at the makespan
     everything falls. *)
  List.iter
    (fun t ->
      let changes = Buffer.create 64 in
      for i = 0 to n - 1 do
        let now = t < makespan && running t i in
        if now <> prev.(i) then begin
          Buffer.add_string changes
            (Printf.sprintf "%d%s\n" (if now then 1 else 0) (code i));
          prev.(i) <- now
        end
      done;
      let occ = if t < makespan then occupied t else 0 in
      if occ <> !prev_occ then begin
        Buffer.add_string changes
          (Printf.sprintf "b%s %s\n" (binary_of_int occ_width occ) occ_code);
        prev_occ := occ
      end;
      if Buffer.length changes > 0 then begin
        add (Printf.sprintf "#%d\n" t);
        add (Buffer.contents changes)
      end)
    (Placement.change_points placement);
  Buffer.contents buf
