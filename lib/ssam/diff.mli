(** Model differencing and change-impact analysis.

    "SCSE is incremental and iterative, when new hazards are identified,
    or system requirements are changed, every artefact along the process
    of SCSE shall be updated and re-validated to analyse the impact of
    all changes" (Sec. II-A).  This module computes what changed between
    two versions of a SSAM model and which elements are *impacted* — the
    changed components plus everything reachable downstream through the
    connection graph — so a DECISIVE iteration can re-run only the
    affected analyses. *)

type change =
  | Added of Base.id
  | Removed of Base.id
  | Modified of Base.id * string  (** id, what changed (human-readable) *)

type impact = {
  changes : change list;  (** all of the above, components first *)
  impacted_components : Base.id list;
      (** changed components plus downstream closure, sorted *)
  reanalysis_required : bool;
      (** any architecture or hazard change — Step 4a must re-run *)
  rehara_required : bool;  (** any hazard change — Step 1 artefacts stale *)
}

val analyse : old_model:Model.t -> new_model:Model.t -> impact
(** Downstream closure is computed on the *new* model's connection graphs
    (package-level relationships and composite-internal connections). *)

val pp_impact : Format.formatter -> impact -> unit
