(** The FTA route against Algorithm 1. *)

val agrees_with_path_fmea : Ssam.Architecture.component -> bool
(** Both routes find the same set of safety-related components:
    {!Fta.Fmea_from_fta.analyse} (singleton minimal cut sets) and
    {!Fmea.Path_fmea.analyse} on the composite's own level. *)
