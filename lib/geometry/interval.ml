type t = { lo : int; len : int }

let make ~lo ~len =
  if len <= 0 then invalid_arg "Interval.make: non-positive length";
  { lo; len }

let hi t = t.lo + t.len
let overlaps a b = a.lo < hi b && b.lo < hi a
let disjoint a b = not (overlaps a b)
let contains a x = a.lo <= x && x < hi a
(* [lo <= bound - len] rather than [hi a <= bound]: [lo + len] can wrap
   past [max_int] and pass the check. *)
let within a ~bound = a.lo >= 0 && a.lo <= bound - a.len
let precedes a b = hi a <= b.lo

let intersection a b =
  let lo = max a.lo b.lo and h = min (hi a) (hi b) in
  if lo < h then Some { lo; len = h - lo } else None

let equal a b = a.lo = b.lo && a.len = b.len
let pp fmt a = Format.fprintf fmt "[%d,%d)" a.lo (hi a)
