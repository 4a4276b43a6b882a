(** The §5 control experiment: cache performance with no collector.

    One pass measures every workload (no GC) with {!Exp_gc.measure}
    through two full cache grids — write-validate and fetch-on-write,
    one replay of one recording at a time — and the three artifacts
    are read off it:

    - E-F1: average cache overhead against cache size, per block size
      and processor, under write-validate;
    - E-T3: the cost of fetch-on-write relative to write-validate;
    - E-T4: write-back traffic overheads (the paper's "preliminary
      measurements" of write costs). *)

val figure_overheads : Format.formatter -> unit
val table_write_policy : Format.formatter -> unit
val table_write_backs : Format.formatter -> unit
