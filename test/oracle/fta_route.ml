let agrees_with_path_fmea (c : Ssam.Architecture.component) =
  let fta_table = Fta.Fmea_from_fta.analyse c in
  let path_table =
    Fmea.Path_fmea.analyse
      ~options:{ Fmea.Path_fmea.default_options with recurse = false }
      c
  in
  let sr t = List.sort String.compare (Fmea.Table.safety_related_components t) in
  sr fta_table = sr path_table
