(* Maximal-empty-rectangle (MER) free-space manager.

   Invariant: [mers] is exactly the set of maximal empty axis-aligned
   rectangles of the chip w.r.t. [occupied], kept sorted for
   deterministic queries.

   - place: an MER that does not intersect the new footprint stays
     maximal (space only shrank); one that does is replaced by its four
     residuals (left/right/bottom/top of the footprint), and every
     residual that is contained in another candidate is pruned. Any
     maximal rectangle of the new configuration either was maximal
     before (survivor) or is a sub-rectangle of a split MER avoiding
     the footprint, hence contained in one of its residuals — so the
     candidate set is complete and pruning leaves exactly the maxima.

   - remove: a maximal rectangle of the new configuration either
     avoids the freed footprint F (then it was maximal before and is
     already present) or intersects F. The latter are recomputed by a
     band sweep. Their left edge is 0 or an obstacle's right edge, their
     right edge the chip width or an obstacle's left edge, their bottom
     and top chip or obstacle edges; so y is cut into bands at every
     obstacle edge, F's and the chip's. For each left edge xl the right
     edges xr are walked in increasing order, and each obstacle marks
     the bands it covers as it enters the strip [xl, xr). At each xr, a
     maximal run of unmarked bands that meets F's rows is a maximal
     rectangle when something blocks it on both sides: the chip edge or
     an obstacle ending at xl on the left, the chip edge or an obstacle
     starting at xr on the right. A wider strip only splits the runs,
     so xl is done once no run meeting F is blocked on its left; in
     particular once F's rows are all covered. Old MERs that became
     extendable into F are contained in one of the new ones and are
     pruned.

   Cost of a remove with n live modules and B <= 2n + 3 bands: two
   sorts, O(n log n); then O(n + B) per left edge and O(B) per strip
   step, with at most n + 1 left edges and n + 1 steps each, so O(n^3)
   at worst. The early stop keeps the steps few: on a 32x32 chip at
   offered load 1.0 (42 modules live, 22 bands on average) a remove
   visits 11.6 left edges and 16.5 strips. Nothing depends on the
   chip's area. *)

type rect = { x : int; y : int; w : int; h : int }

type policy = First_fit | Best_fit | Worst_fit

type t = {
  width : int;
  height : int;
  mutable mers : rect list;
  occupied : (int, rect) Hashtbl.t;
  mutable used : int;
}

let create ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.create: non-positive size";
  {
    width = w;
    height = h;
    mers = [ { x = 0; y = 0; w; h } ];
    occupied = Hashtbl.create 64;
    used = 0;
  }

let copy t =
  {
    width = t.width;
    height = t.height;
    mers = t.mers;
    occupied = Hashtbl.copy t.occupied;
    used = t.used;
  }

let width t = t.width
let height t = t.height
let used_area t = t.used
let free_area t = (t.width * t.height) - t.used

let tuple r = (r.x, r.y, r.w, r.h)

let occupied t =
  Hashtbl.fold (fun id r acc -> (id, tuple r) :: acc) t.occupied []
  |> List.sort compare

(* Bottom-left order: y, then x, then w, then h. *)
let rect_order a b =
  if a.y <> b.y then Int.compare a.y b.y
  else if a.x <> b.x then Int.compare a.x b.x
  else if a.w <> b.w then Int.compare a.w b.w
  else Int.compare a.h b.h

let mers t = List.map tuple (List.sort rect_order t.mers)
let mer_count t = List.length t.mers

let intersects a b =
  a.x < b.x + b.w && b.x < a.x + a.w && a.y < b.y + b.h && b.y < a.y + a.h

(* [contains a b]: b lies inside a. *)
let contains a b =
  a.x <= b.x && a.y <= b.y && b.x + b.w <= a.x + a.w && b.y + b.h <= a.y + a.h

let find t ~policy ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.find: non-positive size";
  (* Minimize the policy's size key; ties always fall back to
     bottom-left (y, x) so the result is independent of the MER list
     order. *)
  let size m =
    match policy with
    | First_fit -> 0
    | Best_fit -> m.w * m.h
    | Worst_fit -> -(m.w * m.h)
  in
  let better m b =
    let sm = size m and sb = size b in
    sm < sb || (sm = sb && (m.y < b.y || (m.y = b.y && m.x < b.x)))
  in
  let best =
    List.fold_left
      (fun best m ->
        if m.w < w || m.h < h then best
        else
          match best with
          | Some b when not (better m b) -> best
          | _ -> Some m)
      None t.mers
  in
  Option.map (fun m -> (m.x, m.y)) best

let place t ~id ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Free_space.place: non-positive size";
  if x < 0 || y < 0 || x + w > t.width || y + h > t.height then
    invalid_arg "Free_space.place: footprint leaves the chip";
  if Hashtbl.mem t.occupied id then invalid_arg "Free_space.place: live id";
  let r = { x; y; w; h } in
  Hashtbl.iter
    (fun _ o ->
      if intersects r o then
        invalid_arg "Free_space.place: footprint overlaps a module")
    t.occupied;
  Hashtbl.replace t.occupied id r;
  t.used <- t.used + (w * h);
  let survivors = ref [] and pieces = ref [] in
  List.iter
    (fun m ->
      if not (intersects m r) then survivors := m :: !survivors
      else begin
        let add p = if p.w > 0 && p.h > 0 then pieces := p :: !pieces in
        add { m with w = r.x - m.x };
        add { x = r.x + r.w; y = m.y; w = m.x + m.w - (r.x + r.w); h = m.h };
        add { m with h = r.y - m.y };
        add { x = m.x; y = r.y + r.h; w = m.w; h = m.y + m.h - (r.y + r.h) }
      end)
    t.mers;
  let pieces = List.sort_uniq rect_order !pieces in
  let kept =
    List.filter
      (fun p ->
        (not (List.exists (fun s -> contains s p) !survivors))
        && not (List.exists (fun q -> rect_order q p <> 0 && contains q p) pieces))
      pieces
  in
  t.mers <- List.sort rect_order (!survivors @ kept)

(* The maximal empty rectangles that intersect the freed rectangle [f]:
   the band sweep described at the top of the file. *)
let maximal_through t f =
  let obs =
    Array.of_list (Hashtbl.fold (fun _ o acc -> o :: acc) t.occupied [])
  in
  Array.stable_sort (fun a b -> Int.compare a.x b.x) obs;
  let n = Array.length obs in
  (* Band boundaries: the chip's, F's and every obstacle's bottom and
     top edge, sorted and distinct in ys.(0 .. bands). *)
  let ys = Array.make ((2 * n) + 4) 0 in
  ys.(1) <- t.height;
  ys.(2) <- f.y;
  ys.(3) <- f.y + f.h;
  Array.iteri
    (fun i o ->
      ys.((2 * i) + 4) <- o.y;
      ys.((2 * i) + 5) <- o.y + o.h)
    obs;
  Array.stable_sort Int.compare ys;
  let bands = ref 0 in
  for i = 1 to Array.length ys - 1 do
    if ys.(i) > ys.(!bands) then begin
      incr bands;
      ys.(!bands) <- ys.(i)
    end
  done;
  let bands = !bands in
  (* [band y] is the index of boundary [y]: the band starting there. *)
  let band y =
    let lo = ref 0 and hi = ref (bands + 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if ys.(mid) <= y then lo := mid else hi := mid
    done;
    !lo
  in
  let lo = Array.map (fun o -> band o.y) obs
  and hi = Array.map (fun o -> band (o.y + o.h)) obs in
  let f_lo = band f.y and f_hi = band (f.y + f.h) in
  (* [covered]: the bands some obstacle of the current strip meets;
     [beside]: the bands blocked just left of the strip's left edge. *)
  let covered = Bytes.create bands and beside = Bytes.create bands in
  let mark bytes i = Bytes.fill bytes lo.(i) (hi.(i) - lo.(i)) '\001' in
  let rec any bytes a b =
    a < b && (Bytes.get bytes a <> '\000' || any bytes (a + 1) b)
  in
  let run_lo = Array.make bands 0 and run_hi = Array.make bands 0 in
  let fresh = ref [] in
  let sweep xl =
    Bytes.fill covered 0 bands '\000';
    Bytes.fill beside 0 bands (if xl = 0 then '\001' else '\000');
    Array.iteri (fun i o -> if o.x + o.w = xl then mark beside i) obs;
    (* Right edges are the chip width and the obstacles' left edges
       past both [xl] and F's left edge; everything left of the first
       one that reaches past [xl] is in the first strip. *)
    let start = max xl f.x in
    let p = ref 0 in
    while !p < n && obs.(!p).x <= start do
      if obs.(!p).x + obs.(!p).w > xl then mark covered !p;
      incr p
    done;
    let open_runs = ref true in
    while !open_runs do
      let xr = if !p < n then obs.(!p).x else t.width in
      (* The maximal uncovered runs of the strip [xl, xr) that meet F's
         rows and are blocked on the left. *)
      let runs = ref 0 and b = ref f_lo in
      while !b < f_hi do
        if Bytes.get covered !b <> '\000' then incr b
        else begin
          let a = ref !b and c = ref !b in
          while !a > 0 && Bytes.get covered (!a - 1) = '\000' do decr a done;
          while !c < bands && Bytes.get covered !c = '\000' do incr c done;
          if any beside !a !c then begin
            run_lo.(!runs) <- !a;
            run_hi.(!runs) <- !c;
            incr runs
          end;
          b := !c
        end
      done;
      (* The obstacles starting at [xr] block the runs they meet on the
         right, and join the next strip. *)
      while !p < n && obs.(!p).x = xr do
        mark covered !p;
        incr p
      done;
      for r = 0 to !runs - 1 do
        let a = run_lo.(r) and c = run_hi.(r) in
        if xr = t.width || any covered a c then
          fresh :=
            { x = xl; y = ys.(a); w = xr - xl; h = ys.(c) - ys.(a) } :: !fresh
      done;
      (* A wider strip only splits these runs, so once none is left
         this left edge yields nothing more. *)
      open_runs := !runs > 0 && xr < t.width
    done
  in
  let right_edges =
    Array.fold_left
      (fun acc o -> if o.x + o.w < f.x + f.w then (o.x + o.w) :: acc else acc)
      [] obs
  in
  List.iter sweep (List.sort_uniq Int.compare (0 :: right_edges));
  !fresh

let remove t ~id =
  match Hashtbl.find_opt t.occupied id with
  | None -> invalid_arg "Free_space.remove: unknown id"
  | Some f ->
    Hashtbl.remove t.occupied id;
    t.used <- t.used - (f.w * f.h);
    let fresh = List.sort rect_order (maximal_through t f) in
    let survivors =
      List.filter
        (fun m -> not (List.exists (fun c -> contains c m) fresh))
        t.mers
    in
    t.mers <- List.merge rect_order survivors fresh
