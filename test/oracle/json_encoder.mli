(** The reference {!Modelio.Json.to_string} is held to byte for byte:
    the straightforward encoder, one [Buffer.add_char] per string byte
    and one [Printf] per number. *)

val to_string : ?indent:int -> Modelio.Json.t -> string
