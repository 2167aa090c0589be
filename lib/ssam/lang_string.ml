type t = { value : string; lang : string } [@@deriving eq, ord, show]

let v ?(lang = "en") value = { value; lang }

let pp ppf t = Format.fprintf ppf "%s" t.value

type set = t list [@@deriving eq, ord, show]

let find ~lang set = List.find_opt (fun t -> String.equal t.lang lang) set

let preferred ?(lang = "en") set =
  match find ~lang set with
  | Some t -> t.value
  | None -> ( match set with t :: _ -> t.value | [] -> "")
