type system_profile = {
  system_name : string;
  element_count : int;
  analysable_components : int;
  failure_mode_count : int;
  safety_related_count : int;
}

let profile_of_table ~name ~element_count (t : Fmea.Table.t) =
  {
    system_name = name;
    element_count;
    analysable_components = List.length (Fmea.Table.components t);
    failure_mode_count = List.length t.Fmea.Table.rows;
    safety_related_count =
      List.length
        (List.filter (fun r -> r.Fmea.Table.safety_related) t.Fmea.Table.rows);
  }

type session = {
  minutes : float;
  iterations : int;
  breakdown : (string * float) list;
}

let duration ~rng ~mode ~profile ~iterations sp =
  let m activity = Cost_model.minutes mode activity in
  let f = float_of_int in
  let items =
    [
      ("setup", m Cost_model.Setup);
      ( "design element review",
        m Cost_model.Review_design_element *. f sp.element_count );
      ( "FMEA classification",
        m Cost_model.Classify_failure_mode *. f sp.failure_mode_count );
      ( "safety-mechanism search",
        m Cost_model.Search_safety_mechanism *. f sp.safety_related_count );
      ("metric recomputation", m Cost_model.Recompute_metrics *. f iterations);
      ("change management", m Cost_model.Change_management *. f iterations);
      ("model import", m Cost_model.Tool_import);
      ("automated runs", m Cost_model.Tool_run *. f iterations);
      ( "result review",
        m Cost_model.Review_tool_output *. f sp.failure_mode_count );
    ]
  in
  let base = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 items in
  let day_factor =
    Float.max 0.8 (Assess.Rng.gaussian rng ~mean:1.0 ~stddev:0.05)
  in
  let minutes = base *. profile.Cost_model.skill_factor *. day_factor in
  let breakdown =
    List.filter (fun (_, v) -> v > 0.0) items
    |> List.map (fun (k, v) ->
           (k, v *. profile.Cost_model.skill_factor *. day_factor))
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  { minutes; iterations; breakdown }

let draw_iterations ~rng ~mode =
  match mode with
  | Cost_model.Manual ->
      (* Skewed low: min of two draws from 2..6. *)
      Int.min (Assess.Rng.range rng ~min:2 ~max:6) (Assess.Rng.range rng ~min:2 ~max:6)
  | Cost_model.Assisted ->
      (* Skewed high: max of two draws. *)
      Int.max (Assess.Rng.range rng ~min:2 ~max:6) (Assess.Rng.range rng ~min:2 ~max:6)

let manual_classification ~rng ~profile (t : Fmea.Table.t) =
  let sr_components = Fmea.Table.safety_related_components t in
  let p = profile.Cost_model.conservatism in
  let rows =
    List.map
      (fun (r : Fmea.Table.row) ->
        let component_already_sr =
          List.exists (String.equal r.Fmea.Table.component) sr_components
        in
        let flip_sr =
          (* Conservative upgrade: a borderline mode on an already
             safety-related component gets marked safety-related "to be
             safe".  Never the other direction, so the component-level
             conclusion is preserved. *)
          (not r.Fmea.Table.safety_related)
          && component_already_sr
          && Assess.Rng.bernoulli rng ~p
        in
        let reword_effect =
          (* Differing opinion on the effect of the failure — the paper's
             stated source of row-level disagreement. *)
          Assess.Rng.bernoulli rng ~p
        in
        if flip_sr then
          Fmea.Table.make_row
            ~impact:"judged safety-related by analyst (conservative)"
            ~component:r.Fmea.Table.component
            ~component_fit:r.Fmea.Table.component_fit
            ~failure_mode:r.Fmea.Table.failure_mode
            ~distribution_pct:r.Fmea.Table.distribution_pct ~safety_related:true
            ()
        else if reword_effect then
          { r with Fmea.Table.impact = "analyst judged the effect differently" }
        else r)
      t.Fmea.Table.rows
  in
  { t with Fmea.Table.rows }
