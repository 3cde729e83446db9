type t = int array

let make extents =
  if Array.length extents = 0 then invalid_arg "Container.make: zero dimension";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Container.make: non-positive extent")
    extents;
  Array.copy extents

let make3 ~w ~h ~t_max = make [| w; h; t_max |]
let dim = Array.length

let extent c k =
  if k < 0 || k >= Array.length c then invalid_arg "Container.extent: bad axis";
  c.(k)

let extents = Array.copy
let volume c = Array.fold_left Saturating.mul 1 c

let fits c b =
  Box.dim b = Array.length c
  && Array.for_all Fun.id (Array.mapi (fun k e -> Box.extent b k <= e) c)

let with_extent c k e =
  if k < 0 || k >= Array.length c then
    invalid_arg "Container.with_extent: bad axis";
  if e <= 0 then invalid_arg "Container.with_extent: non-positive extent";
  let c' = Array.copy c in
  c'.(k) <- e;
  c'

let equal = ( = )

let pp fmt c =
  Format.fprintf fmt "%a"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_char fmt 'x')
       Format.pp_print_int)
    (Array.to_list c)
