(** ASCII rendering of space-time placements.

    Renders the chip occupancy at chosen time steps, one character per
    cell; boxes are labelled ['A'], ['B'], ... by index (wrapping after
    62 symbols). Intended for examples, debugging and the CLI. *)

(** [slice p ~container ~time] is the chip occupancy at clock cycle
    [time] as a list of strings (row 0 first). Empty cells are ['.'].
    @raise Invalid_argument if the chip has more than 65,536 cells
    (a 256x256 chip). *)
val slice : Placement.t -> container:Container.t -> time:int -> string list

(** [timeline p ~container] renders the slice at every cycle where the
    set of running boxes changes, with headers [-- t=... --].
    @raise Invalid_argument as {!slice} does. *)
val timeline : Placement.t -> container:Container.t -> string

(** [gantt p] renders a one-line-per-box time chart, ignoring spatial
    coordinates. The chart has one column per cycle while the makespan
    is at most 128 cycles; past that, each column covers the same
    number of cycles (the fewest that keep the chart within 128
    columns) and a box marks every column its time interval meets. *)
val gantt : Placement.t -> string
