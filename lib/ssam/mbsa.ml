type analysis_kind = FMEA | FMEDA | FTA | Other_analysis of string
[@@deriving eq, show]

type artifact_reference = {
  ar_meta : Base.meta;
  kind : analysis_kind;
  location : string;
  iteration : int;
}
[@@deriving eq, show]

type trace_kind = Supports | Addresses | Allocates | DerivedFrom
[@@deriving eq, show]

type trace_link = {
  tl_meta : Base.meta;
  trace_kind : trace_kind;
  trace_source : Base.id;
  trace_target : Base.id;
}
[@@deriving eq, show]

type package = {
  package_meta : Base.meta;
  requirement_packages : Base.id list;
  hazard_packages : Base.id list;
  component_packages : Base.id list;
  artifacts : artifact_reference list;
  traces : trace_link list;
}
[@@deriving eq, show]

let artifact_reference ?(iteration = 0) ~meta ~kind ~location () =
  { ar_meta = meta; kind; location; iteration }

let trace_link ~meta ~kind ~source ~target =
  { tl_meta = meta; trace_kind = kind; trace_source = source; trace_target = target }

let package ?(requirement_packages = []) ?(hazard_packages = [])
    ?(component_packages = []) ?(artifacts = []) ?(traces = []) ~meta () =
  {
    package_meta = meta;
    requirement_packages;
    hazard_packages;
    component_packages;
    artifacts;
    traces;
  }

let add_trace p t = { p with traces = p.traces @ [ t ] }

let latest_artifact p kind =
  List.fold_left
    (fun acc a ->
      if equal_analysis_kind a.kind kind then
        match acc with
        | Some best when best.iteration >= a.iteration -> acc
        | Some _ | None -> Some a
      else acc)
    None p.artifacts
