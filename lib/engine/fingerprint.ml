type t = string (* raw 16-byte MD5 digest *)

let equal = String.equal
let to_hex = Digest.to_hex

(* Leaves, nodes and encoded values are domain-separated by a one-byte
   tag so that [node [leaf s]], [leaf s] and [value tag v] can never
   collide. *)
let leaf s = Digest.string ("L" ^ s)
let node ts = Digest.string ("N" ^ String.concat "" ts)

let file path =
  match Digest.file path with
  | d -> node [ leaf "file"; d ]
  | exception Sys_error _ -> leaf ("file-absent:" ^ path)

(* ---------- domain fingerprints ----------

   Every domain value is hashed as a kind tag plus its [Marshal] bytes.
   The encoding covers every field, costs nothing to keep in sync with
   the types, and writes floats as their IEEE bits, so any change to a
   float moves the hash.  [No_sharing] makes the bytes a function of the
   value's structure alone: physically shared and separately allocated
   equal sub-values encode identically.  The tag is a NUL-free literal,
   so tag and bytes cannot be confused with another kind's. *)
let encode v = Marshal.to_string v [ Marshal.No_sharing ]

let value tag v =
  Digest.string (String.concat "" [ "V"; tag; "\x00"; encode v ])

let diagram (d : Blockdiag.Diagram.t) = value "diagram" d

let rec ssam_component (c : Ssam.Architecture.component) =
  (* Shallow part: every field except the children, which hash as their
     own subtrees (the Merkle property the change-impact reuse needs). *)
  let shallow = { c with Ssam.Architecture.children = [] } in
  node
    (value "ssam-component" shallow
    :: List.map ssam_component c.Ssam.Architecture.children)

(* Name-free view for golden-run identity: every observable of a golden
   run (factorisation, operating point, sensor readings, max element
   current) depends only on the element list, so two design variants
   whose extracted circuits are element-for-element equal can share one
   factorisation even when their diagrams are named differently. *)
let netlist_structure nl =
  value "netlist-structure" (Circuit.Netlist.elements nl)

let netlist_with_structure nl ~structure =
  node [ leaf ("netlist:" ^ Circuit.Netlist.name nl); structure ]

let netlist nl = netlist_with_structure nl ~structure:(netlist_structure nl)

let reliability_model rm =
  (* [add] keeps one entry per component type, so the sort is total. *)
  value "reliability-model"
    (List.sort
       (fun (a : Reliability.Reliability_model.entry) b ->
         String.compare a.Reliability.Reliability_model.component_type
           b.Reliability.Reliability_model.component_type)
       (Reliability.Reliability_model.entries rm))

let sm_model sm =
  (* Mechanisms may repeat and have no natural key: sort their
     encodings, so the order they were added in does not matter. *)
  value "sm-model"
    (List.sort String.compare
       (List.map encode (Reliability.Sm_model.mechanisms sm)))

let fmea_table (t : Fmea.Table.t) = value "fmea-table" t

let injection_options (o : Fmea.Injection_fmea.options) =
  leaf
    (Printf.sprintf "injection-options:%h:%h:[%s]:%s:%s"
       o.Fmea.Injection_fmea.threshold_rel o.Fmea.Injection_fmea.threshold_abs
       (String.concat "," o.Fmea.Injection_fmea.exclude)
       (match o.Fmea.Injection_fmea.overcurrent_factor with
       | None -> "-"
       | Some f -> Printf.sprintf "%h" f)
       (match o.Fmea.Injection_fmea.monitored_sensors with
       | None -> "*"
       | Some ids -> "[" ^ String.concat "," ids ^ "]"))

let path_options (o : Fmea.Path_fmea.options) =
  leaf
    (Printf.sprintf "path-options:[%s]:%b"
       (String.concat "," o.Fmea.Path_fmea.exclude)
       o.Fmea.Path_fmea.recurse)

let artifact (a : Assurance.Sacm.artifact) =
  node
    [
      leaf ("artifact:" ^ a.Assurance.Sacm.artifact_location);
      leaf a.Assurance.Sacm.artifact_driver;
      leaf
        (match a.Assurance.Sacm.acceptance_query with
        | None -> "-"
        | Some q -> q);
      leaf a.Assurance.Sacm.artifact_description;
      file a.Assurance.Sacm.artifact_location;
    ]
