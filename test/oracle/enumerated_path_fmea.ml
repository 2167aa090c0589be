open Ssam

let overflow_warning =
  Printf.sprintf
    "path enumeration overflowed (> %d simple paths); single-point status \
     unknown — use the dominator analysis"
    Fmea.Path_fmea.max_paths

let redundant (child : Architecture.component) =
  child.Architecture.functions <> []
  && List.for_all
       (fun (f : Architecture.func) ->
         f.Architecture.tolerance <> Architecture.OneOoOne)
       child.Architecture.functions

(* [`Single], [`Alternatives] or [`Unknown] for each child id of [c]. *)
let classifier (c : Architecture.component) =
  match Fmea.Path_fmea.paths c with
  | exception Fmea.Path_fmea.Too_many_paths -> fun _ -> `Unknown
  | paths ->
      let on_path id =
        List.exists (fun ch -> String.equal (Architecture.component_id ch) id)
      in
      fun id ->
        if paths <> [] && List.for_all (on_path id) paths then `Single
        else `Alternatives

let rec rows ~(options : Fmea.Path_fmea.options) acc
    (c : Architecture.component) =
  let verdict = classifier c in
  List.fold_left
    (fun acc (child : Architecture.component) ->
      let cid = Architecture.component_id child in
      let row (fm : Architecture.failure_mode) =
        let fm_name = Base.display_name fm.Architecture.fm_meta in
        let make =
          Fmea.Table.make_row ~component:cid
            ~component_fit:child.Architecture.fit ~failure_mode:fm_name
            ~distribution_pct:fm.Architecture.distribution_pct
        in
        if List.mem cid options.Fmea.Path_fmea.exclude then
          make ~warning:"component excluded from analysis by assumption"
            ~safety_related:false ()
        else if not (Architecture.is_loss_like fm.Architecture.nature) then
          make
            ~warning:
              (Printf.sprintf
                 "failure mode '%s' is not loss-of-function; path analysis \
                  cannot classify it — review manually"
                 fm_name)
            ~safety_related:false ()
        else if redundant child then
          make ~impact:"tolerated by redundant function (no single point)"
            ~safety_related:false ()
        else
          match verdict cid with
          | `Single ->
              make ~impact:"breaks every input-output path (single point)"
                ~safety_related:true ()
          | `Alternatives ->
              make ~impact:"alternative paths remain" ~safety_related:false ()
          | `Unknown -> make ~warning:overflow_warning ~safety_related:false ()
      in
      let acc = List.rev_append (List.map row child.Architecture.failure_modes) acc in
      if options.Fmea.Path_fmea.recurse && child.Architecture.children <> []
      then rows ~options acc child
      else acc)
    acc c.Architecture.children

let analyse ?(options = Fmea.Path_fmea.default_options) c =
  {
    Fmea.Table.system_name = Architecture.component_name c;
    rows = List.rev (rows ~options [] c);
  }
