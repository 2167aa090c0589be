type severity = S0 | S1 | S2 | S3 [@@deriving eq, ord, show]

type exposure = E1 | E2 | E3 | E4 [@@deriving eq, ord, show]

type controllability = C1 | C2 | C3 [@@deriving eq, ord, show]

type cause = { cause_meta : Base.meta; description : string }
[@@deriving eq, show]

type effectiveness = { verified : bool; effectiveness_pct : float }
[@@deriving eq, show]

type control_measure = {
  cm_meta : Base.meta;
  safety_decision : string;
  validation_plan : string;
  effectiveness : effectiveness option;
  mitigates : Base.id list;
}
[@@deriving eq, show]

type hazardous_situation = {
  hs_meta : Base.meta;
  severity : severity;
  exposure : exposure option;
  controllability : controllability option;
  probability : float option;
  causes : cause list;
}
[@@deriving eq, show]

type element = Situation of hazardous_situation | Measure of control_measure
[@@deriving eq, show]

type package_interface = { interface_meta : Base.meta; exports : Base.id list }
[@@deriving eq, show]

type package = {
  package_meta : Base.meta;
  elements : element list;
  interfaces : package_interface list;
}
[@@deriving eq, show]

let cause ~meta description = { cause_meta = meta; description }

let situation ?exposure ?controllability ?probability ?(causes = []) ~meta
    ~severity () =
  { hs_meta = meta; severity; exposure; controllability; probability; causes }

let measure ?(safety_decision = "") ?(validation_plan = "") ?effectiveness
    ?(mitigates = []) ~meta () =
  { cm_meta = meta; safety_decision; validation_plan; effectiveness; mitigates }

let package ?(interfaces = []) ~meta elements =
  { package_meta = meta; elements; interfaces }

let element_meta = function
  | Situation s -> s.hs_meta
  | Measure m -> m.cm_meta

let element_id e = (element_meta e).Base.id

let situations p =
  List.filter_map
    (function Situation s -> Some s | Measure _ -> None)
    p.elements

let measures p =
  List.filter_map
    (function Measure m -> Some m | Situation _ -> None)
    p.elements

let measures_for p situation_id =
  List.filter
    (fun m -> List.exists (String.equal situation_id) m.mitigates)
    (measures p)

let unmitigated p =
  List.filter
    (fun s -> measures_for p s.hs_meta.Base.id = [])
    (situations p)
