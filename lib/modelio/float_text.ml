let to_string f =
  let bits = Int64.bits_of_float f in
  let rec go precision =
    let s = Printf.sprintf "%.*g" precision f in
    if precision >= 17 then s
    else
      match float_of_string_opt s with
      | Some g when Int64.equal (Int64.bits_of_float g) bits -> s
      | _ -> go (precision + 1)
  in
  go 15
