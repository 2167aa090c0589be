(** The forward taint ({!Dataflow.Passes.forward_taint}) rendered as an
    FMEA table — the graph-level "forward injection FMEA" the backward
    diagnosis is differentially tested against. *)

val table : ?jobs:int -> Dataflow.Model.t -> Fmea.Table.t
(** One row per mode, safety-related iff a loss-like mode of a
    non-redundant component reaches an observation point. *)
