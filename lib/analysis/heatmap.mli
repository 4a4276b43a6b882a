(** ASCII density heatmaps over a plain counts grid.

    The attribution profiler reduces a sweep to a row-major
    [rows * cols] matrix of miss counts (address space down, simulated
    time across); this renders such a matrix through the {!Ascii}
    canvas with a logarithmic brightness ramp, the terminal cousin of
    the paper's miss-map figures.  The input is a bare [int array] so
    the renderer stays decoupled from whichever accumulator produced
    it (profiles, per-region time series, test fixtures). *)

val render :
  Format.formatter ->
  ?row_label:(int -> string) ->
  rows:int ->
  cols:int ->
  int array ->
  unit
(** [render ppf ~rows ~cols counts] draws the matrix top row first,
    mapping each cell to a ramp character by
    [log(1 + v) / log(1 + max)] so sparse interference misses stay
    visible next to dense allocation waves.  A legend line gives the
    ramp and the maximum cell value.  [row_label] supplies a
    left-margin label per row.

    @raise Invalid_argument if [rows * cols <> Array.length counts] or
    either dimension is non-positive. *)
