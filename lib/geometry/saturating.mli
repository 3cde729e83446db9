(** Saturating arithmetic on non-negative extents, areas and volumes.

    A result past [max_int] is [max_int]. Saturation only ever lowers a
    value, so a saturated capacity can never certify infeasibility
    ([demand > max_int] is false), while a saturated demand still
    exceeds every capacity it truly exceeds; a ceiling quotient of a
    saturated value never exceeds the true quotient, so a lower bound
    built from one stays a lower bound. *)

val mul : int -> int -> int
val add : int -> int -> int

(** [ceil_div a b] is [ceil (a / b)] for [a >= 0] and [b > 0], without
    the overflow of [(a + b - 1) / b]. *)
val ceil_div : int -> int -> int
