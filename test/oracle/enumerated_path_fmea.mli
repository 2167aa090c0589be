(** Algorithm 1 by explicit simple-path enumeration — the pre-dominator
    classification {!Fmea.Path_fmea.analyse} is checked against.

    A loss-like failure mode is a single point when its component lies on
    every path {!Fmea.Path_fmea.paths} lists.  Beyond
    {!Fmea.Path_fmea.max_paths} the enumeration gives up, and every
    loss-like row of that composite gets an explicit warning instead of a
    verdict.  All other rows (excluded components, redundant functions,
    non-loss modes) are built by the same rules as
    {!Fmea.Path_fmea.analyse}, so the tables are {!Fmea.Table.equal}
    wherever the enumeration fits under the cap. *)

val analyse :
  ?options:Fmea.Path_fmea.options -> Ssam.Architecture.component -> Fmea.Table.t
