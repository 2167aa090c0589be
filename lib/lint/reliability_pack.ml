(* Reliability-model / safety-mechanism pack (DECISIVE Steps 3 and 4b
   inputs).  Checks each table on its own and, when both are present,
   the references between them — an SM row naming a failure mode its
   component type never declares is the classic silent-skip bug in the
   deployment search. *)

let rule id severity title = { Rule.id; severity; category = Rule.Reliability; title }

let rel001 = rule "REL001" Rule.Warning "failure-mode distributions do not sum to 100%"
let rel002 = rule "REL002" Rule.Error "failure-mode distribution outside [0,100]"
let rel003 = rule "REL003" Rule.Error "negative FIT"
let rel004 = rule "REL004" Rule.Error "duplicate failure-mode names in an entry"
let rel005 = rule "REL005" Rule.Warning "zero-FIT entry declares failure modes"
let rel006 = rule "REL006" Rule.Error "SM coverage outside [0,100]"
let rel007 = rule "REL007" Rule.Error "negative SM cost"
let rel008 = rule "REL008" Rule.Warning "SM row targets a type with no reliability entry"
let rel009 = rule "REL009" Rule.Error "SM row names a failure mode its type does not declare"
let rel010 = rule "REL010" Rule.Warning "block type with catalogue failure modes but no FIT row"

let rules =
  [ rel001; rel002; rel003; rel004; rel005; rel006; rel007; rel008; rel009; rel010 ]

let check_reliability ?file acc rel =
  let diag ?element ?hint rule msg =
    acc := Rule.diagnostic ?element ?file ?hint ~rule msg :: !acc
  in
  List.iter
    (fun (e : Reliability.Reliability_model.entry) ->
      let ty = e.Reliability.Reliability_model.component_type in
      let fms = e.Reliability.Reliability_model.failure_modes in
      if e.Reliability.Reliability_model.fit < 0.0 then
        diag ~element:ty rel003
          (Printf.sprintf "%s: negative FIT %g" ty
             e.Reliability.Reliability_model.fit);
      List.iter
        (fun (fm : Reliability.Reliability_model.failure_mode) ->
          let d = fm.Reliability.Reliability_model.distribution_pct in
          if not (0.0 <= d && d <= 100.0) then
            diag ~element:ty rel002
              (Printf.sprintf "%s/%s: distribution %g%% outside [0,100]" ty
                 fm.Reliability.Reliability_model.fm_name d))
        fms;
      if fms <> [] then begin
        let sum =
          List.fold_left
            (fun s (fm : Reliability.Reliability_model.failure_mode) ->
              s +. fm.Reliability.Reliability_model.distribution_pct)
            0.0 fms
        in
        if Float.abs (sum -. 100.0) > 0.5 then
          diag ~element:ty
            ~hint:"make the distribution shares sum to 100" rel001
            (Printf.sprintf "%s: failure-mode distributions sum to %g%%" ty sum);
        if e.Reliability.Reliability_model.fit = 0.0 then
          diag ~element:ty ~hint:"give the entry its FIT" rel005
            (Printf.sprintf "%s: zero FIT but %d failure mode(s) declared" ty
               (List.length fms))
      end;
      let names =
        List.map
          (fun (fm : Reliability.Reliability_model.failure_mode) ->
            String.lowercase_ascii fm.Reliability.Reliability_model.fm_name)
          fms
      in
      if List.length (List.sort_uniq String.compare names) <> List.length names
      then
        diag ~element:ty rel004
          (Printf.sprintf "%s: duplicate failure-mode names" ty))
    (Reliability.Reliability_model.entries rel)

let check_sm ?file acc rel_opt sm =
  let diag ?element ?hint rule msg =
    acc := Rule.diagnostic ?element ?file ?hint ~rule msg :: !acc
  in
  List.iter
    (fun (m : Reliability.Sm_model.mechanism) ->
      let label =
        Printf.sprintf "%s/%s/%s" m.Reliability.Sm_model.component_type
          m.Reliability.Sm_model.failure_mode m.Reliability.Sm_model.sm_name
      in
      let cov = m.Reliability.Sm_model.coverage_pct in
      if not (0.0 <= cov && cov <= 100.0) then
        diag ~element:label rel006
          (Printf.sprintf "%s: coverage %g%% outside [0,100]" label cov);
      if not (m.Reliability.Sm_model.cost >= 0.0) then
        diag ~element:label rel007 (Printf.sprintf "%s: negative cost" label);
      match rel_opt with
      | None -> ()
      | Some rel -> (
          match
            Reliability.Reliability_model.find rel
              m.Reliability.Sm_model.component_type
          with
          | None ->
              diag ~element:label
                ~hint:"add a reliability entry for the component type" rel008
                (Printf.sprintf
                   "%s: no reliability entry for component type '%s'" label
                   m.Reliability.Sm_model.component_type)
          | Some e ->
              let wanted =
                String.lowercase_ascii m.Reliability.Sm_model.failure_mode
              in
              let declared =
                List.map
                  (fun (fm : Reliability.Reliability_model.failure_mode) ->
                    String.lowercase_ascii
                      fm.Reliability.Reliability_model.fm_name)
                  e.Reliability.Reliability_model.failure_modes
              in
              if not (List.mem wanted declared) then
                diag ~element:label
                  ~hint:
                    "fix the Failure_Mode cell or declare the mode in the \
                     reliability model"
                  rel009
                  (Printf.sprintf
                     "%s: failure mode '%s' is not declared by the '%s' \
                      reliability entry"
                     label m.Reliability.Sm_model.failure_mode
                     e.Reliability.Reliability_model.component_type)))
    (Reliability.Sm_model.mechanisms sm)

(* Cross-check against the design: a block type the catalogue says can
   fail, analysed with no FIT row, silently contributes 0 FIT. *)
let check_diagram_coverage ?file acc rel diagram =
  let diag ?element ?hint rule msg =
    acc := Rule.diagnostic ?element ?file ?hint ~rule msg :: !acc
  in
  let types =
    List.sort_uniq String.compare
      (List.map
         (fun (b : Blockdiag.Diagram.block) -> b.Blockdiag.Diagram.block_type)
         (Blockdiag.Diagram.all_blocks diagram))
  in
  List.iter
    (fun ty ->
      match Reliability.Reliability_model.find rel ty with
      | Some _ -> ()
      | None -> (
          match Circuit.Library.find ty with
          | Some info
            when info.Circuit.Library.failure_modes <> [] ->
              diag ~element:ty
                ~hint:"add a FIT row so the type contributes to the FMEDA"
                rel010
                (Printf.sprintf
                   "block type '%s' can fail (catalogue lists %d mode(s)) but \
                    has no reliability entry"
                   ty
                   (List.length info.Circuit.Library.failure_modes))
          | Some _ | None -> ()))
    types

let run (input : Input.t) =
  let acc = ref [] in
  (match input.Input.reliability with
  | None -> ()
  | Some (file, rel) -> check_reliability ?file acc rel);
  (* The built-in SM catalogue (path [None]) is only checked when the
     user supplied their own file — linting the stock catalogue against
     whatever reliability model happens to be loaded is noise. *)
  (match input.Input.sm with
  | None | Some (None, _) -> ()
  | Some ((Some _ as file), sm) ->
      check_sm ?file acc (Option.map snd input.Input.reliability) sm);
  (match (input.Input.reliability, input.Input.diagram) with
  | Some (_, rel), Some (file, diagram) ->
      check_diagram_coverage ~file acc rel diagram
  | _ -> ());
  List.rev !acc
