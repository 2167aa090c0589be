open Circuit

let supply_volts = 12.0
let series_ohms = 0.05
let load_ohms = 100.0
let sensor_stride = 16

let r id a b ohms = Element.make ~id ~kind:(Element.Resistor ohms) a b
let load id a ohms = Element.make ~id ~kind:(Element.Load ohms) a Netlist.ground

let ladder ~sections =
  if sections < 1 then invalid_arg "Generator.ladder: need at least 1 section";
  let elements = ref [] in
  let push e = elements := e :: !elements in
  push (Element.make ~id:"VIN" ~kind:(Element.Vsource supply_volts) "vin"
          Netlist.ground);
  let prev = ref "vin" in
  for i = 1 to sections do
    let here = Printf.sprintf "n%d" i in
    if i mod sensor_stride = 0 then begin
      (* Tap point: a current sensor in series with the segment
         resistor, adding one internal node and one branch unknown. *)
      let mid = Printf.sprintf "m%d" i in
      push
        (Element.make
           ~id:(Printf.sprintf "CS%d" i)
           ~kind:Element.Current_sensor !prev mid);
      push (r (Printf.sprintf "RS%d" i) mid here series_ohms)
    end
    else push (r (Printf.sprintf "RS%d" i) !prev here series_ohms);
    push (load (Printf.sprintf "RL%d" i) here load_ohms);
    prev := here
  done;
  push
    (Element.make ~id:"VOUT" ~kind:Element.Voltage_sensor !prev Netlist.ground);
  Netlist.of_elements
    (Printf.sprintf "ladder-%d" sections)
    (List.rev !elements)

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then
    invalid_arg "Generator.grid: need at least a 1x1 grid";
  let node rr cc = Printf.sprintf "g%d_%d" rr cc in
  let elements = ref [] in
  let push e = elements := e :: !elements in
  (* Feed at the (0,0) corner through a sensed supply branch. *)
  push (Element.make ~id:"VIN" ~kind:(Element.Vsource supply_volts) "vin"
          Netlist.ground);
  push (Element.make ~id:"CS0" ~kind:Element.Current_sensor "vin" (node 0 0));
  for rr = 0 to rows - 1 do
    for cc = 0 to cols - 1 do
      if cc < cols - 1 then
        push
          (r (Printf.sprintf "RH%d_%d" rr cc) (node rr cc)
             (node rr (cc + 1))
             series_ohms);
      if rr < rows - 1 then
        push
          (r (Printf.sprintf "RV%d_%d" rr cc) (node rr cc)
             (node (rr + 1) cc)
             series_ohms);
      push (load (Printf.sprintf "RL%d_%d" rr cc) (node rr cc) load_ohms)
    done
  done;
  push
    (Element.make ~id:"VOUT" ~kind:Element.Voltage_sensor
       (node (rows - 1) (cols - 1))
       Netlist.ground);
  Netlist.of_elements (Printf.sprintf "grid-%dx%d" rows cols) (List.rev !elements)

let synthetic_catalogue =
  let open Reliability.Reliability_model in
  let mode fm_name distribution_pct fault loss_of_function =
    { fm_name; distribution_pct; fault = Some fault; loss_of_function }
  in
  let entry component_type fit failure_modes =
    { component_type; fit = Reliability.Fit.of_float fit; failure_modes }
  in
  of_entries
    [
      entry "resistor" 5.0
        [
          mode "Open" 60.0 Fault.Open_circuit true;
          mode "Short" 30.0 Fault.Short_circuit false;
          mode "Drift" 10.0 (Fault.Parameter_shift 2.0) false;
        ];
      entry "load" 20.0
        [
          mode "Open" 50.0 Fault.Open_circuit true;
          mode "Short" 50.0 Fault.Short_circuit false;
        ];
      entry "vsource" 50.0
        [
          mode "Stuck Low" 70.0 (Fault.Stuck_value 0.0) true;
          mode "Drift High" 30.0 (Fault.Parameter_shift 1.25) false;
        ];
      entry "current_sensor" 10.0 [ mode "Open" 100.0 Fault.Open_circuit true ];
    ]

(* ---------- synthetic block diagrams (SSAM architecture) ----------

   Deterministic composite components whose input→output simple-path
   count is controllable in closed form — the scaling subjects for the
   path FMEA: a diamond chain doubles the path count per stage, a grid
   grows it as a central binomial.  Every child carries one
   loss-of-function failure mode, so Algorithm 1 must classify every
   block. *)

let block_fit = 10.0

let arch_leaf id =
  let open Ssam in
  Architecture.component ~component_type:Architecture.Hardware ~fit:block_fit
    ~failure_modes:
      [
        Architecture.failure_mode
          ~meta:(Base.meta ~name:"Loss" (id ^ ":loss"))
          ~nature:Architecture.Loss_of_function ~distribution_pct:100.0 ();
      ]
    ~meta:(Base.meta ~name:id id) ()

let arch_composite ~id ~children ~connections =
  let open Ssam in
  Architecture.component ~component_type:Architecture.System ~children
    ~connections ~meta:(Base.meta ~name:id id) ()

let arch_conn =
  let open Ssam in
  fun i a b ->
    Architecture.relationship
      ~meta:(Base.meta (Printf.sprintf "c%d" i))
      ~from_component:a ~to_component:b ()

let diamond_arch ~stages =
  if stages < 1 then invalid_arg "Generator.diamond_arch: need >= 1 stage";
  let root = Printf.sprintf "diamond-%d" stages in
  let children = ref [] and connections = ref [] and k = ref 0 in
  let child id = children := arch_leaf id :: !children in
  let wire a b =
    incr k;
    connections := arch_conn !k a b :: !connections
  in
  let junction i = Printf.sprintf "J%d" i in
  child (junction 0);
  wire root (junction 0);
  for i = 1 to stages do
    let a = Printf.sprintf "D%da" i and b = Printf.sprintf "D%db" i in
    child a;
    child b;
    child (junction i);
    wire (junction (i - 1)) a;
    wire (junction (i - 1)) b;
    wire a (junction i);
    wire b (junction i)
  done;
  wire (junction stages) root;
  arch_composite ~id:root ~children:(List.rev !children)
    ~connections:(List.rev !connections)

let grid_arch ~rows ~cols =
  if rows < 1 || cols < 1 then
    invalid_arg "Generator.grid_arch: need at least a 1x1 grid";
  let root = Printf.sprintf "grid-arch-%dx%d" rows cols in
  let block r c = Printf.sprintf "B%d_%d" r c in
  let children = ref [] and connections = ref [] and k = ref 0 in
  let wire a b =
    incr k;
    connections := arch_conn !k a b :: !connections
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      children := arch_leaf (block r c) :: !children;
      if c < cols - 1 then wire (block r c) (block r (c + 1));
      if r < rows - 1 then wire (block r c) (block (r + 1) c)
    done
  done;
  wire root (block 0 0);
  wire (block (rows - 1) (cols - 1)) root;
  arch_composite ~id:root ~children:(List.rev !children)
    ~connections:(List.rev !connections)

(* Simple-path counts, for picking scales relative to the enumeration
   cap: a [stages]-diamond has [2^stages] paths; a [rows x cols] grid
   has [C (rows-1+cols-1) (rows-1)] monotone paths. *)

let diamond_path_count ~stages =
  if stages >= 62 then max_int else 1 lsl stages

let grid_path_count ~rows ~cols =
  let n = rows - 1 + (cols - 1) and r = rows - 1 in
  let r = min r (n - r) in
  let acc = ref 1.0 in
  for i = 1 to r do
    acc := !acc *. float_of_int (n - r + i) /. float_of_int i
  done;
  let f = Float.round !acc in
  if f >= float_of_int max_int then max_int else int_of_float f

