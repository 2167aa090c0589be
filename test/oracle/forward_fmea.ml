open Dataflow

let table ?jobs (m : Model.t) =
  let forward = Passes.forward_taint ?jobs m in
  let rows =
    List.map
      (fun (md : Model.mode) ->
        let reached =
          List.filter_map
            (fun (output, node) ->
              if Graph.Bitset.mem forward.Passes.sets.(node) md.Model.m_index then
                Some output
              else None)
            m.Model.outputs
        in
        let fit = m.Model.node_fit.(md.Model.m_node) in
        if reached = [] then
          Fmea.Table.make_row ~impact:"reaches no monitored output"
            ~component:md.Model.m_component ~component_fit:fit
            ~failure_mode:md.Model.m_name ~distribution_pct:md.Model.m_pct
            ~safety_related:false ()
        else if not md.Model.m_loss_like then
          Fmea.Table.make_row
            ~warning:
              (Printf.sprintf
                 "failure mode '%s' is not loss-of-function; propagation \
                  cannot classify it — review manually"
                 md.Model.m_name)
            ~component:md.Model.m_component ~component_fit:fit
            ~failure_mode:md.Model.m_name ~distribution_pct:md.Model.m_pct
            ~safety_related:false ()
        else if Graph.Bitset.mem m.Model.redundant md.Model.m_node then
          Fmea.Table.make_row
            ~impact:"tolerated by redundant function (no single point)"
            ~component:md.Model.m_component ~component_fit:fit
            ~failure_mode:md.Model.m_name ~distribution_pct:md.Model.m_pct
            ~safety_related:false ()
        else
          Fmea.Table.make_row
            ~impact:
              (Printf.sprintf "deviates monitored output%s %s"
                 (if List.length reached = 1 then "" else "s")
                 (String.concat ", " reached))
            ~component:md.Model.m_component ~component_fit:fit
            ~failure_mode:md.Model.m_name ~distribution_pct:md.Model.m_pct
            ~safety_related:true ())
      (Array.to_list m.Model.modes)
  in
  { Fmea.Table.system_name = "propagation"; rows }
