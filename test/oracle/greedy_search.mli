(** The list-based greedy deployment search — the reference
    {!Optimize.Search.greedy} is checked against.  Each round builds every
    move as a deployment list and scores it with
    {!Optimize.Search.evaluate}. *)

val greedy :
  ?component_types:(string * string) list ->
  target:Ssam.Requirement.integrity_level ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  Optimize.Search.candidate
(** Starting from no deployment, apply the move with the best SPFM gain
    per added cost until the target is met or no move gains.  A move
    deploys an option on a slot: it replaces the deployment whose names
    equal the slot's exactly, unless that deployment's mechanism is
    structurally the option.  The cost added is the option's, less the
    replaced one's, floored at 0.01; the first best move in slot and
    option order wins, and the new deployment goes first in the list. *)
