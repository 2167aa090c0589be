(** Textual serialisation of block diagrams — the "model file" format that
    stands in for Simulink's .slx in examples, drivers and tests.

    {v
    diagram psu {
      block DC1 : vsource { volts = 5; }
      block MC1 : microcontroller ports (conserving a, conserving b) {
        ohms = 100;
        annotation = "complex MCU modelled as annotated subsystem";
      }
      connect DC1.a -> D1.a;
      subsystem filter {
        block L1 : inductor { henries = 0.001; }
      }
    }
    v}

    Comments run [#] to end of line.  [parse (print d) = d] bit for bit
    for finite numbers ({!Modelio.Float_text}), any string and identifier
    names the lexer accepts. *)

exception Parse_error of { line : int; message : string }

val parse : string -> Diagram.t

val parse_file : string -> Diagram.t

val print : Diagram.t -> string

val write_file : string -> Diagram.t -> unit
