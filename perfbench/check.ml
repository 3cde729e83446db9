(* Answer checkers, independent of the code that produced the answers.
   Each returns [Error msg] naming what is wrong; the workloads count
   every [Error] as a failed operation. *)

module I = Packing.Instance
module T = Packing.Telemetry
module P = Packing.Problems
module C = Geometry.Container

let ( let* ) = Result.bind
let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Space-time utilization of a witness: task volume over the volume of
   the container cut at the witness makespan. *)
let witness_utilization inst ~w ~h placement =
  let span = Geometry.Placement.makespan placement in
  if span <= 0 then 0.0
  else Common.fratio (I.total_volume inst) (w * h * span)

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

(* The request's answer, reduced to what must agree across an
   isomorphism class. *)
type served = {
  status : string;
  value : int option;
  definitive : bool;
  utilization : float option;  (** of the witness, when one came back *)
}

let placement_of_json inst json =
  let n = I.count inst in
  let index = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace index (I.label inst i) i
  done;
  let origins = Array.make n [||] in
  let* items =
    match json with T.List l -> Ok l | _ -> Error "placement is not a list"
  in
  let* () =
    List.fold_left
      (fun acc item ->
        let* () = acc in
        match (T.member "task" item, T.member "at" item) with
        | Some (T.String label), Some (T.List at) -> (
          match Hashtbl.find_opt index label with
          | None -> errorf "unknown task %S" label
          | Some i ->
            let coords = List.filter_map T.to_int_opt at in
            if List.length coords <> I.dim inst then errorf "bad origin for %S" label
            else begin
              origins.(i) <- Array.of_list coords;
              Ok ()
            end)
        | _ -> Error "malformed placement item")
      (Ok ()) items
  in
  if Array.exists (fun o -> Array.length o = 0) origins then
    Error "placement misses a task"
  else Ok (Geometry.Placement.make (I.boxes inst) origins)

let serve_response (req : Inputs.request) line =
  let inst = Inputs.instance req in
  let* json = Result.map_error (fun e -> "unparseable response: " ^ e) (T.of_string line) in
  let* () =
    match T.member "error" json with
    | Some e -> errorf "error response %s" (T.to_string e)
    | None -> Ok ()
  in
  let* status =
    match T.member "status" json with
    | Some (T.String s) -> Ok s
    | _ -> Error "no status"
  in
  let value = Option.bind (T.member "value" json) T.to_int_opt in
  let q = req.Inputs.query in
  let* () =
    match (q.Inputs.op, status) with
    | Inputs.Solve, ("feasible" | "infeasible" | "undecided") -> Ok ()
    | (Inputs.Min_time | Inputs.Min_area), ("optimal" | "feasible" | "infeasible" | "unknown")
      -> Ok ()
    | _ -> errorf "status %S for %s" status (Inputs.op_name q.Inputs.op)
  in
  let* () =
    match (Option.bind (T.member "lower_bound" json) T.to_int_opt, value) with
    | Some lb, Some v when lb > v -> errorf "lower_bound %d > value %d" lb v
    | _ -> Ok ()
  in
  let* utilization =
    match T.member "placement" json with
    | None -> Ok None
    | Some pj ->
      let* p = placement_of_json inst pj in
      let w, h, t =
        match (q.Inputs.op, value) with
        | Inputs.Solve, _ -> (fst q.Inputs.chip, snd q.Inputs.chip, q.Inputs.time)
        | Inputs.Min_time, Some v -> (fst q.Inputs.chip, snd q.Inputs.chip, v)
        | Inputs.Min_area, Some v -> (v, v, q.Inputs.time)
        | _, None -> (0, 0, 0)
      in
      if not (I.placement_feasible inst ~container:(C.make3 ~w ~h ~t_max:t) p)
      then errorf "witness infeasible in %dx%dx%d" w h t
      else Ok (Some (witness_utilization inst ~w ~h p))
  in
  let definitive =
    match (q.Inputs.op, status) with
    | Inputs.Solve, ("feasible" | "infeasible") -> true
    | (Inputs.Min_time | Inputs.Min_area), ("optimal" | "infeasible") -> true
    | _ -> false
  in
  Ok { status; value; definitive; utilization }

(* Every member of an isomorphism class must get the same verdict and
   value; [seen] holds the first answer of each class. *)
let class_agrees seen cls (s : served) =
  if not s.definitive then Ok ()
  else
    match Hashtbl.find_opt seen cls with
    | None ->
      Hashtbl.replace seen cls (s.status, s.value);
      Ok ()
    | Some (st, v) when st = s.status && v = s.value -> Ok ()
    | Some (st, v) ->
      let show = function Some x -> string_of_int x | None -> "-" in
      errorf "class %d answered %s/%s, earlier %s/%s" cls s.status (show s.value) st
        (show v)

(* ------------------------------------------------------------------ *)
(* optimize-*                                                          *)
(* ------------------------------------------------------------------ *)

let container_of (c : Inputs.opt_case) value =
  match c.Inputs.goal with
  | `Min_time (w, h) -> C.make3 ~w ~h ~t_max:value
  | `Min_area t -> C.make3 ~w:value ~h:value ~t_max:t

let witness c value placement =
  if I.placement_feasible c.Inputs.inst ~container:(container_of c value) placement
  then Ok ()
  else errorf "witness infeasible at value %d" value

(* Infeasibility the checker can confirm on its own: a task wider than
   the chip (min-time) or a critical path longer than the budget
   (min-area). The drivers only answer [Infeasible] in these cases. *)
let infeasible_confirmed (c : Inputs.opt_case) =
  let inst = c.Inputs.inst in
  match c.Inputs.goal with
  | `Min_time (w, h) ->
    List.exists
      (fun i -> I.extent inst i 0 > w || I.extent inst i 1 > h)
      (List.init (I.count inst) Fun.id)
  | `Min_area t -> I.critical_path inst > t

let optimization (c : Inputs.opt_case) (r : int P.anytime) =
  let expect v =
    match c.Inputs.expect with
    | Some e when e <> v -> errorf "optimum %d, paper says %d" v e
    | _ -> Ok ()
  in
  match r with
  | P.Optimal { value; placement } ->
    let* () = witness c value placement in
    expect value
  | P.Feasible_incumbent { incumbent = { value; placement }; lower_bound; gap } ->
    let* () = witness c value placement in
    let* () =
      if lower_bound > value || gap <> value - lower_bound then
        errorf "bounds lb=%d value=%d gap=%d" lower_bound value gap
      else Ok ()
    in
    if c.Inputs.expect <> None then Error "paper case not proven optimal" else Ok ()
  | P.Infeasible ->
    if infeasible_confirmed c then Ok () else Error "infeasible, not confirmed"
  | P.Unknown { lower_bound } -> (
    match c.Inputs.expect with
    | Some e when lower_bound > e -> errorf "lower bound %d above optimum %d" lower_bound e
    | Some _ -> Error "paper case not proven optimal"
    | None -> Ok ())

let proven = function
  | P.Optimal _ | P.Infeasible -> true
  | P.Feasible_incumbent _ | P.Unknown _ -> false

(* A jobs-2 answer against the jobs-1 answer on the same case and budget:
   definitive answers agree exactly, and a definitive optimum lies
   within the other run's proven bracket. *)
let agree (a : int P.anytime) (b : int P.anytime) =
  let bracket = function
    | P.Optimal { value; _ } -> Some (value, value)
    | P.Feasible_incumbent { incumbent = { value; _ }; lower_bound; _ } ->
      Some (lower_bound, value)
    | P.Unknown { lower_bound } -> Some (lower_bound, max_int)
    | P.Infeasible -> None
  in
  match (a, b) with
  | P.Infeasible, P.Infeasible -> Ok ()
  | P.Infeasible, _ when proven b -> Error "jobs-1 infeasible, jobs-2 not"
  | _, P.Infeasible when proven a -> Error "jobs-2 infeasible, jobs-1 not"
  | _ -> (
    match (bracket a, bracket b) with
    | Some (lo1, hi1), Some (lo2, hi2) ->
      if max lo1 lo2 > min hi1 hi2 then
        errorf "brackets [%d,%d] and [%d,%d] disjoint" lo1 hi1 lo2 hi2
      else Ok ()
    | _ -> Ok ())

(* ------------------------------------------------------------------ *)
(* online-stream                                                       *)
(* ------------------------------------------------------------------ *)

(* Re-derive from the events alone: every task is placed, rejected or
   never arrived exactly once, footprints stay on the chip, no two
   placed tasks share a cell at the same time, starts respect arrival
   and every predecessor's finish, a rejected predecessor dooms its
   successors, and the makespan and utilization match the report.
   Returns the recomputed utilization. *)
let online_stream (tasks : Fpga.Online.task array) ~chip (r : Fpga.Online.report) =
  let n = Array.length tasks in
  let cw = Fpga.Chip.width chip and ch = Fpga.Chip.height chip in
  let start = Array.make n (-1) and px = Array.make n 0 and py = Array.make n 0 in
  let rejected = Array.make n false in
  let* () =
    List.fold_left
      (fun acc ev ->
        let* () = acc in
        match ev with
        | Fpga.Online.Placed { task; x; y; time } ->
          if task < 0 || task >= n then errorf "placed unknown task %d" task
          else if start.(task) >= 0 || rejected.(task) then errorf "task %d disposed twice" task
          else begin
            start.(task) <- time;
            px.(task) <- x;
            py.(task) <- y;
            Ok ()
          end
        | Fpga.Online.Rejected { task } ->
          if task < 0 || task >= n || start.(task) >= 0 || rejected.(task) then
            errorf "bad rejection of task %d" task
          else begin
            rejected.(task) <- true;
            Ok ()
          end
        | Fpga.Online.Deferred _ -> Ok ()
        | Fpga.Online.Compacted _ -> Error "compaction event with compaction off")
      (Ok ()) r.Fpga.Online.events
  in
  let placed = Array.fold_left (fun a s -> if s >= 0 then a + 1 else a) 0 start in
  let nrej = Array.fold_left (fun a b -> if b then a + 1 else a) 0 rejected in
  let never =
    Array.fold_left
      (fun a (t : Fpga.Online.task) -> if t.arrival = max_int then a + 1 else a)
      0 tasks
  in
  let* () =
    if placed <> r.placed || nrej <> r.rejected || never <> r.never_arrived
       || placed + nrej + never <> n
    then
      errorf "disposition placed=%d/%d rejected=%d/%d never=%d/%d n=%d" placed r.placed
        nrej r.rejected never r.never_arrived n
    else Ok ()
  in
  let finish i = start.(i) + tasks.(i).duration in
  let rec each i =
    if i = n then Ok ()
    else
      let t = tasks.(i) in
      let* () =
        if start.(i) < 0 then
          if (not rejected.(i)) && t.arrival <> max_int then
            errorf "task %d arrived but was neither placed nor rejected" i
          else Ok ()
        else if px.(i) < 0 || py.(i) < 0 || px.(i) + t.w > cw || py.(i) + t.h > ch then
          errorf "task %d off chip at (%d,%d)" i px.(i) py.(i)
        else if start.(i) < t.arrival then
          errorf "task %d starts %d before arrival %d" i start.(i) t.arrival
        else
          match List.find_opt (fun p -> start.(p) < 0 || start.(i) < finish p) t.preds with
          | Some p -> errorf "task %d starts %d before predecessor %d finishes" i start.(i) p
          | None -> Ok ()
      in
      each (i + 1)
  in
  let* () = each 0 in
  (* Sweep in start order against the tasks still running. *)
  let order = List.filter (fun i -> start.(i) >= 0) (List.init n Fun.id) in
  let order = List.stable_sort (fun a b -> compare start.(a) start.(b)) order in
  let* _active =
    List.fold_left
      (fun acc i ->
        let* active = acc in
        let active = List.filter (fun j -> finish j > start.(i)) active in
        let t = tasks.(i) in
        match
          List.find_opt
            (fun j ->
              let u = tasks.(j) in
              px.(i) < px.(j) + u.w && px.(j) < px.(i) + t.w
              && py.(i) < py.(j) + u.h && py.(j) < py.(i) + t.h)
            active
        with
        | Some j -> errorf "tasks %d and %d overlap at time %d" i j start.(i)
        | None -> Ok (i :: active))
      (Ok []) order
  in
  let makespan = List.fold_left (fun a i -> max a (finish i)) 0 order in
  let first =
    Array.fold_left (fun a (t : Fpga.Online.task) -> min a t.arrival) max_int tasks
  in
  let busy =
    List.fold_left (fun a i -> a + (tasks.(i).w * tasks.(i).h * tasks.(i).duration)) 0 order
  in
  let util =
    if first < max_int && makespan > first then Common.fratio busy (cw * ch * (makespan - first))
    else 0.0
  in
  if placed > 0 && makespan <> r.makespan then errorf "makespan %d, report %d" makespan r.makespan
  else if Float.abs (util -. r.utilization) > 1e-9 then
    errorf "utilization %.6f, report %.6f" util r.utilization
  else Ok util
