(** Assurance cases in GSN/SACM style — the ACME substitute of Sec. V-C.

    Cases are goal structures: goals decomposed through strategies down to
    solutions, which cite {!artifact}s.  An artifact carries an
    *acceptance query* (in the {!module:Query} language) over an external
    model; {!module:Eval} executes these to validate the case
    automatically — the paper's "when our design changes, it is reflected
    in the FMEDA result, which can in turn be automatically checked by
    ACME (by executing the query)". *)

type artifact = {
  artifact_location : string;  (** file holding the evidence *)
  artifact_driver : string;  (** {!Modelio.Driver} name, e.g. ["csv"] *)
  acceptance_query : string option;
      (** query over the loaded model, bound as [Artifact]; truthy =
          evidence supports the claim.  [None]: presence-only evidence. *)
  artifact_description : string;
}
[@@deriving eq, show]

type kind =
  | Goal
  | Strategy
  | Solution
  | Context
  | Assumption
  | Justification
[@@deriving eq, show]

type node = {
  node_id : string;
  kind : kind;
  statement : string;
  supported_by : node list;
  in_context_of : node list;  (** Context/Assumption/Justification nodes *)
  artifact : artifact option;  (** meaningful on Solutions *)
}
[@@deriving eq, show]

type case = { case_name : string; root : node } [@@deriving eq, show]

val artifact :
  ?query:string ->
  ?description:string ->
  location:string ->
  driver:string ->
  unit ->
  artifact

val goal :
  ?supported_by:node list -> ?in_context_of:node list -> id:string -> string -> node

val strategy :
  ?supported_by:node list -> ?in_context_of:node list -> id:string -> string -> node

val solution : ?artifact:artifact -> id:string -> string -> node

val context : id:string -> string -> node

val fold : ('a -> node -> 'a) -> 'a -> case -> 'a
(** Pre-order over supported_by and in_context_of. *)

val find : case -> string -> node option

val solutions : case -> node list

val undeveloped_goals : case -> node list
(** Goals/strategies with no support — the gaps reviewers look for. *)

val validate : case -> string list
(** Structural problems: duplicate ids, solutions with children, context
    nodes used as support, goals supported directly by context. *)
