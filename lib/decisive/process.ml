type step =
  | Step1_plan
  | Step2_design
  | Step3_reliability
  | Step4a_evaluate
  | Step4b_refine
  | Step5_safety_concept
[@@deriving eq, show]

let step_name = function
  | Step1_plan -> "Step 1 (plan)"
  | Step2_design -> "Step 2 (design)"
  | Step3_reliability -> "Step 3 (reliability data)"
  | Step4a_evaluate -> "Step 4a (evaluate)"
  | Step4b_refine -> "Step 4b (refine)"
  | Step5_safety_concept -> "Step 5 (safety concept)"

type artifact_kind =
  | System_definition
  | Function_requirements
  | Hazard_log
  | Safety_requirements
  | Architectural_design
  | Component_reliability_model
  | Component_safety_analysis_model
  | Architecture_metrics
  | Safety_mechanism_model
  | Safety_concept
[@@deriving eq, show]

type artifact = {
  kind : artifact_kind;
  label : string;
  produced_at_step : step;
  produced_at_iteration : int;
}
[@@deriving eq, show]

type t = {
  process_name : string;
  target_level : Ssam.Requirement.integrity_level;
  iteration : int;
  current : step option;
  produced : artifact list; (* newest first *)
  spfm_history : (int * float) list; (* (iteration, spfm), newest first *)
}

type error =
  | Wrong_order of { current : step option; attempted : step }
  | Missing_prerequisite of { step : step; needs : artifact_kind }
  | Not_acceptably_safe of string
[@@deriving show]

let start ~name ~target =
  {
    process_name = name;
    target_level = target;
    iteration = 1;
    current = None;
    produced = [];
    spfm_history = [];
  }

let iteration t = t.iteration

let artifacts t = List.rev t.produced

let latest t kind =
  List.find_opt (fun a -> equal_artifact_kind a.kind kind) t.produced

let record_spfm t spfm =
  { t with spfm_history = (t.iteration, spfm) :: t.spfm_history }

let latest_spfm t =
  match t.spfm_history with (_, s) :: _ -> Some s | [] -> None

(* Which steps may follow which.  Step 4b loops back to 4a; a new
   iteration (via [iterate]) re-opens Step 2. *)
let may_follow previous attempted =
  match (previous, attempted) with
  | None, Step1_plan -> true
  | Some Step1_plan, Step2_design -> true
  | Some Step2_design, Step3_reliability -> true
  | Some Step3_reliability, Step4a_evaluate -> true
  | Some Step4a_evaluate, (Step4b_refine | Step5_safety_concept) -> true
  | Some Step4b_refine, Step4a_evaluate -> true
  (* Re-running the same analysis step is allowed. *)
  | Some Step4a_evaluate, Step4a_evaluate -> true
  | _ -> false

let prerequisites = function
  | Step1_plan -> []
  | Step2_design -> [ System_definition; Function_requirements; Hazard_log ]
  | Step3_reliability -> [ Architectural_design ]
  | Step4a_evaluate -> [ Architectural_design; Component_reliability_model ]
  | Step4b_refine -> [ Architecture_metrics ]
  | Step5_safety_concept -> [ Architecture_metrics ]

let perform t step ~produces =
  if not (may_follow t.current step) then
    Error (Wrong_order { current = t.current; attempted = step })
  else
    match
      List.find_opt (fun k -> Option.is_none (latest t k)) (prerequisites step)
    with
    | Some needs -> Error (Missing_prerequisite { step; needs })
    | None -> (
        let proceed () =
          let new_artifacts =
            List.map
              (fun (kind, label) ->
                {
                  kind;
                  label;
                  produced_at_step = step;
                  produced_at_iteration = t.iteration;
                })
              produces
          in
          Ok
            {
              t with
              current = Some step;
              produced = List.rev new_artifacts @ t.produced;
            }
        in
        match step with
        | Step5_safety_concept -> (
            match latest_spfm t with
            | None ->
                Error (Not_acceptably_safe "no architecture metrics recorded")
            | Some spfm ->
                if Fmea.Asil.meets ~target:t.target_level ~spfm then proceed ()
                else
                  Error
                    (Not_acceptably_safe
                       (Format.asprintf "%a"
                          (fun ppf () ->
                            Fmea.Asil.pp_verdict ppf ~target:t.target_level ~spfm)
                          ())))
        | Step1_plan | Step2_design | Step3_reliability | Step4a_evaluate
        | Step4b_refine ->
            proceed ())

let iterate t =
  { t with iteration = t.iteration + 1; current = Some Step1_plan }

let is_complete t = Option.is_some (latest t Safety_concept)

let pp_history ppf t =
  Format.fprintf ppf "@[<v>DECISIVE process '%s' (target %s), iteration %d@,"
    t.process_name
    (Ssam.Requirement.integrity_level_to_string t.target_level)
    t.iteration;
  List.iter
    (fun a ->
      Format.fprintf ppf "  it%d %-22s %-32s %s@," a.produced_at_iteration
        (step_name a.produced_at_step)
        (show_artifact_kind a.kind) a.label)
    (artifacts t);
  List.iter
    (fun (it, s) -> Format.fprintf ppf "  it%d SPFM %.2f%%@," it s)
    (List.rev t.spfm_history);
  Format.fprintf ppf "@]"
