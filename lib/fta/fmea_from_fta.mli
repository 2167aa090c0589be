(** FMEA tables derived from fault trees — the HiP-HOPS route
    ("FMEA tables can be generated from the fault trees", related work
    [14]), used as a cross-check baseline for the direct graph algorithm.

    A component's loss-of-function mode is safety-related iff its loss
    event forms a singleton minimal cut set.  The paper's contrast — "our
    generation of FMEA does not rely on the existence of a fault tree" —
    is what the benches measure: this route pays for cut-set computation
    where {!Fmea.Path_fmea} does not. *)

val analyse : Ssam.Architecture.component -> Fmea.Table.t
(** Generates the fault tree with {!From_ssam.generate}, computes minimal
    cut sets and classifies.  Raises {!From_ssam.No_paths} on components
    with no input→output paths. *)

val single_points_via_bdd : Ssam.Architecture.component -> string list
(** Single-point components read straight off the decision diagram:
    lower the composite with {!From_ssam.of_structure}, build the
    {!Bdd} under the {!From_ssam.event_order} hint and keep the
    cardinality-1 minimal critical sets that name whole components
    (sorted).  [[]] when the composite has no input→output structure.
    The third route to the same answer as {!Fmea.Path_fmea.single_points}
    and {!single_point_components} — cross-checked in the tests.
    Raises {!From_ssam.Cyclic} on cyclic diagrams. *)
