open Modelio

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

module Env = Map.Make (String)

type env = Mvalue.t Env.t

let env_empty = Env.empty

let env_of_models models =
  List.fold_left (fun env (name, v) -> Env.add name v env) Env.empty models

let as_num what = function
  | Mvalue.Num f -> f
  | v -> fail "%s: expected a number, got %s" what (Mvalue.type_name v)

let as_str what = function
  | Mvalue.Str s -> s
  | v -> fail "%s: expected a string, got %s" what (Mvalue.type_name v)

(* Structural comparison for sorting and ordering operators. *)
let rec compare_values a b =
  match (a, b) with
  | Mvalue.Num x, Mvalue.Num y -> Float.compare x y
  | Mvalue.Str x, Mvalue.Str y -> String.compare x y
  | Mvalue.Bool x, Mvalue.Bool y -> Bool.compare x y
  | Mvalue.Null, Mvalue.Null -> 0
  | Mvalue.Seq x, Mvalue.Seq y -> List.compare compare_values x y
  | _ -> fail "cannot compare %s with %s" (Mvalue.type_name a) (Mvalue.type_name b)

let equal_values a b =
  match (a, b) with
  | Mvalue.Num x, Mvalue.Num y -> x = y
  | _ -> Mvalue.equal a b

let binop op a b =
  match (op, a, b) with
  | Ast.Add, Mvalue.Num x, Mvalue.Num y -> Mvalue.Num (x +. y)
  | Ast.Add, Mvalue.Str x, Mvalue.Str y -> Mvalue.Str (x ^ y)
  | Ast.Add, Mvalue.Str x, Mvalue.Num y ->
      Mvalue.Str (x ^ Printf.sprintf "%g" y)
  | Ast.Add, Mvalue.Num x, Mvalue.Str y ->
      Mvalue.Str (Printf.sprintf "%g" x ^ y)
  | Ast.Add, Mvalue.Seq x, Mvalue.Seq y -> Mvalue.Seq (x @ y)
  | Ast.Sub, Mvalue.Num x, Mvalue.Num y -> Mvalue.Num (x -. y)
  | Ast.Mul, Mvalue.Num x, Mvalue.Num y -> Mvalue.Num (x *. y)
  | Ast.Div, Mvalue.Num x, Mvalue.Num y ->
      if y = 0.0 then fail "division by zero" else Mvalue.Num (x /. y)
  | Ast.Mod, Mvalue.Num x, Mvalue.Num y ->
      if y = 0.0 then fail "mod by zero" else Mvalue.Num (Float.rem x y)
  | Ast.Eq, a, b -> Mvalue.Bool (equal_values a b)
  | Ast.Neq, a, b -> Mvalue.Bool (not (equal_values a b))
  | Ast.Lt, a, b -> Mvalue.Bool (compare_values a b < 0)
  | Ast.Le, a, b -> Mvalue.Bool (compare_values a b <= 0)
  | Ast.Gt, a, b -> Mvalue.Bool (compare_values a b > 0)
  | Ast.Ge, a, b -> Mvalue.Bool (compare_values a b >= 0)
  | (Ast.And | Ast.Or | Ast.Implies), _, _ ->
      assert false (* short-circuited in eval_expr *)
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b ->
      fail "operator incompatible with %s and %s" (Mvalue.type_name a)
        (Mvalue.type_name b)

(* Field navigation: on a record, field lookup; on a sequence, map the
   navigation over the elements (EOL collection navigation). *)
let rec navigate v name =
  match v with
  | Mvalue.Record _ -> (
      match Mvalue.field v name with
      | Some x -> x
      | None -> fail "record has no field '%s'" name)
  | Mvalue.Seq items -> Mvalue.Seq (List.map (fun x -> navigate x name) items)
  | _ -> fail "cannot navigate '.%s' on %s" name (Mvalue.type_name v)

exception Returned of Mvalue.t

let num_method recv name =
  let f = as_num name recv in
  match name with
  | "abs" -> Some (Mvalue.Num (Float.abs f))
  | "floor" -> Some (Mvalue.Num (Float.round (Float.of_int (int_of_float (floor f)))))
  | "ceil" -> Some (Mvalue.Num (ceil f))
  | "round" -> Some (Mvalue.Num (Float.round f))
  | "toStr" -> Some (Mvalue.Str (Printf.sprintf "%g" f))
  | _ -> None

let rec eval_expr env expr =
  match expr with
  | Ast.At (_, e) -> eval_expr env e
  | Ast.Number f -> Mvalue.Num f
  | Ast.String s -> Mvalue.Str s
  | Ast.Bool b -> Mvalue.Bool b
  | Ast.Null -> Mvalue.Null
  | Ast.Seq_lit items -> Mvalue.Seq (List.map (eval_expr env) items)
  | Ast.Ident name -> (
      match Env.find_opt name env with
      | Some v -> v
      | None -> fail "unknown identifier '%s'" name)
  | Ast.Field (e, name) -> navigate (eval_expr env e) name
  | Ast.Index (e, i) -> (
      let v = eval_expr env e in
      let idx = int_of_float (as_num "index" (eval_expr env i)) in
      match v with
      | Mvalue.Seq items -> (
          match List.nth_opt items idx with
          | Some x -> x
          | None -> fail "index %d out of bounds (size %d)" idx (List.length items))
      | _ -> fail "cannot index %s" (Mvalue.type_name v))
  | Ast.Unop (Ast.Neg, e) -> Mvalue.Num (-.as_num "negation" (eval_expr env e))
  | Ast.Unop (Ast.Not, e) -> Mvalue.Bool (not (Mvalue.truthy (eval_expr env e)))
  | Ast.Binop (Ast.And, a, b) ->
      if Mvalue.truthy (eval_expr env a) then
        Mvalue.Bool (Mvalue.truthy (eval_expr env b))
      else Mvalue.Bool false
  | Ast.Binop (Ast.Or, a, b) ->
      if Mvalue.truthy (eval_expr env a) then Mvalue.Bool true
      else Mvalue.Bool (Mvalue.truthy (eval_expr env b))
  | Ast.Binop (Ast.Implies, a, b) ->
      if Mvalue.truthy (eval_expr env a) then
        Mvalue.Bool (Mvalue.truthy (eval_expr env b))
      else Mvalue.Bool true
  | Ast.Binop (op, a, b) -> binop op (eval_expr env a) (eval_expr env b)
  | Ast.If_expr (c, t, e) ->
      if Mvalue.truthy (eval_expr env c) then eval_expr env t
      else eval_expr env e
  | Ast.Call (recv, name, args) -> eval_call env (eval_expr env recv) name args

and eval_lambda env args what =
  match args with
  | [ Ast.Lambda (x, body) ] ->
      fun v -> eval_expr (Env.add x v env) body
  | _ -> fail "%s expects a single lambda argument (x | expr)" what

and eval_positional env args what n =
  let vals =
    List.map
      (function
        | Ast.Positional e -> eval_expr env e
        | Ast.Lambda _ -> fail "%s does not take a lambda" what)
      args
  in
  if List.length vals <> n then
    fail "%s expects %d argument(s), got %d" what n (List.length vals);
  vals

and eval_call env recv name args =
  let lambda () = eval_lambda env args name in
  let pos n = eval_positional env args name n in
  match (recv, name) with
  (* Collection operations. *)
  | Mvalue.Seq items, "select" ->
      let f = lambda () in
      Mvalue.Seq (List.filter (fun v -> Mvalue.truthy (f v)) items)
  | Mvalue.Seq items, "reject" ->
      let f = lambda () in
      Mvalue.Seq (List.filter (fun v -> not (Mvalue.truthy (f v))) items)
  | Mvalue.Seq items, "collect" ->
      let f = lambda () in
      Mvalue.Seq (List.map f items)
  | Mvalue.Seq items, "exists" ->
      let f = lambda () in
      Mvalue.Bool (List.exists (fun v -> Mvalue.truthy (f v)) items)
  | Mvalue.Seq items, "forAll" ->
      let f = lambda () in
      Mvalue.Bool (List.for_all (fun v -> Mvalue.truthy (f v)) items)
  | Mvalue.Seq items, "selectOne" -> (
      let f = lambda () in
      match List.find_opt (fun v -> Mvalue.truthy (f v)) items with
      | Some v -> v
      | None -> Mvalue.Null)
  | Mvalue.Seq items, "count" ->
      let f = lambda () in
      Mvalue.Num
        (float_of_int
           (List.length (List.filter (fun v -> Mvalue.truthy (f v)) items)))
  | Mvalue.Seq items, "sortBy" ->
      let f = lambda () in
      let keyed = List.map (fun v -> (f v, v)) items in
      Mvalue.Seq
        (List.map snd
           (List.stable_sort (fun (a, _) (b, _) -> compare_values a b) keyed))
  | Mvalue.Seq items, "size" ->
      ignore (pos 0);
      Mvalue.Num (float_of_int (List.length items))
  | Mvalue.Seq items, "isEmpty" ->
      ignore (pos 0);
      Mvalue.Bool (items = [])
  | Mvalue.Seq items, "notEmpty" ->
      ignore (pos 0);
      Mvalue.Bool (items <> [])
  | Mvalue.Seq items, "first" -> (
      ignore (pos 0);
      match items with v :: _ -> v | [] -> Mvalue.Null)
  | Mvalue.Seq items, "last" -> (
      ignore (pos 0);
      match List.rev items with v :: _ -> v | [] -> Mvalue.Null)
  | Mvalue.Seq items, "at" -> (
      match pos 1 with
      | [ i ] -> (
          let idx = int_of_float (as_num "at" i) in
          match List.nth_opt items idx with
          | Some v -> v
          | None -> fail "at(%d): out of bounds (size %d)" idx (List.length items))
      | _ -> assert false)
  | Mvalue.Seq items, "includes" -> (
      match pos 1 with
      | [ v ] -> Mvalue.Bool (List.exists (equal_values v) items)
      | _ -> assert false)
  | Mvalue.Seq items, "indexOf" -> (
      match pos 1 with
      | [ v ] ->
          let rec go i = function
            | [] -> -1
            | x :: tl -> if equal_values v x then i else go (i + 1) tl
          in
          Mvalue.Num (float_of_int (go 0 items))
      | _ -> assert false)
  | Mvalue.Seq items, "sum" ->
      ignore (pos 0);
      Mvalue.Num (List.fold_left (fun acc v -> acc +. as_num "sum" v) 0.0 items)
  | Mvalue.Seq items, "avg" ->
      ignore (pos 0);
      if items = [] then fail "avg of empty sequence"
      else
        Mvalue.Num
          (List.fold_left (fun acc v -> acc +. as_num "avg" v) 0.0 items
          /. float_of_int (List.length items))
  | Mvalue.Seq items, "min" -> (
      ignore (pos 0);
      match items with
      | [] -> Mvalue.Null
      | first :: rest ->
          List.fold_left
            (fun acc v -> if compare_values v acc < 0 then v else acc)
            first rest)
  | Mvalue.Seq items, "max" -> (
      ignore (pos 0);
      match items with
      | [] -> Mvalue.Null
      | first :: rest ->
          List.fold_left
            (fun acc v -> if compare_values v acc > 0 then v else acc)
            first rest)
  | Mvalue.Seq items, "flatten" ->
      ignore (pos 0);
      Mvalue.Seq
        (List.concat_map
           (function Mvalue.Seq inner -> inner | v -> [ v ])
           items)
  | Mvalue.Seq items, "distinct" ->
      ignore (pos 0);
      let rec dedup seen = function
        | [] -> List.rev seen
        | v :: tl ->
            if List.exists (equal_values v) seen then dedup seen tl
            else dedup (v :: seen) tl
      in
      Mvalue.Seq (dedup [] items)
  (* String operations. *)
  | Mvalue.Str s, "toUpperCase" ->
      ignore (pos 0);
      Mvalue.Str (String.uppercase_ascii s)
  | Mvalue.Str s, "toLowerCase" ->
      ignore (pos 0);
      Mvalue.Str (String.lowercase_ascii s)
  | Mvalue.Str s, "trim" ->
      ignore (pos 0);
      Mvalue.Str (String.trim s)
  | Mvalue.Str s, "length" ->
      ignore (pos 0);
      Mvalue.Num (float_of_int (String.length s))
  | Mvalue.Str s, "startsWith" -> (
      match pos 1 with
      | [ p ] ->
          let p = as_str "startsWith" p in
          Mvalue.Bool
            (String.length s >= String.length p
            && String.sub s 0 (String.length p) = p)
      | _ -> assert false)
  | Mvalue.Str s, "endsWith" -> (
      match pos 1 with
      | [ p ] ->
          let p = as_str "endsWith" p in
          Mvalue.Bool
            (String.length s >= String.length p
            && String.sub s (String.length s - String.length p) (String.length p)
               = p)
      | _ -> assert false)
  | Mvalue.Str s, "contains" -> (
      match pos 1 with
      | [ p ] ->
          let p = as_str "contains" p in
          let n = String.length s and m = String.length p in
          let rec search i =
            if i + m > n then false
            else if String.sub s i m = p then true
            else search (i + 1)
          in
          Mvalue.Bool (m = 0 || search 0)
      | _ -> assert false)
  | Mvalue.Str s, "split" -> (
      match pos 1 with
      | [ sep ] ->
          let sep = as_str "split" sep in
          if sep = "" then fail "split: empty separator"
          else
            let parts = ref [] in
            let buf = Buffer.create 16 in
            let n = String.length s and m = String.length sep in
            let rec go i =
              if i >= n then parts := Buffer.contents buf :: !parts
              else if i + m <= n && String.sub s i m = sep then begin
                parts := Buffer.contents buf :: !parts;
                Buffer.clear buf;
                go (i + m)
              end
              else begin
                Buffer.add_char buf s.[i];
                go (i + 1)
              end
            in
            go 0;
            Mvalue.Seq (List.rev_map (fun p -> Mvalue.Str p) !parts)
      | _ -> assert false)
  | Mvalue.Str s, "replace" -> (
      match pos 2 with
      | [ a; b ] ->
          let a = as_str "replace" a and b = as_str "replace" b in
          if a = "" then fail "replace: empty pattern"
          else
            let buf = Buffer.create (String.length s) in
            let n = String.length s and m = String.length a in
            let rec go i =
              if i >= n then ()
              else if i + m <= n && String.sub s i m = a then begin
                Buffer.add_string buf b;
                go (i + m)
              end
              else begin
                Buffer.add_char buf s.[i];
                go (i + 1)
              end
            in
            go 0;
            Mvalue.Str (Buffer.contents buf)
      | _ -> assert false)
  | Mvalue.Str s, "toNumber" -> (
      ignore (pos 0);
      match Spreadsheet.number s with
      | Some f -> Mvalue.Num f
      | None -> fail "toNumber: %S is not numeric" s)
  (* Record operations. *)
  | Mvalue.Record fields, "fields" ->
      ignore (pos 0);
      Mvalue.Seq (List.map (fun (k, _) -> Mvalue.Str k) fields)
  | Mvalue.Record _, "has" -> (
      match pos 1 with
      | [ n ] ->
          Mvalue.Bool (Option.is_some (Mvalue.field recv (as_str "has" n)))
      | _ -> assert false)
  | Mvalue.Record _, "get" -> (
      match pos 1 with
      | [ n ] -> (
          match Mvalue.field recv (as_str "get" n) with
          | Some v -> v
          | None -> Mvalue.Null)
      | _ -> assert false)
  (* Number methods. *)
  | Mvalue.Num _, _ -> (
      match num_method recv name with
      | Some v ->
          ignore (pos 0);
          v
      | None -> fail "number has no method '%s'" name)
  | recv, name ->
      fail "%s has no method '%s'" (Mvalue.type_name recv) name

let rec exec_stmts env last = function
  | [] -> (env, last)
  | Ast.Var_decl (name, e) :: rest | Ast.Assign (name, e) :: rest ->
      let v = eval_expr env e in
      exec_stmts (Env.add name v env) last rest
  | Ast.Expr_stmt e :: rest ->
      let v = eval_expr env e in
      exec_stmts env v rest
  | Ast.Return e :: _ -> raise (Returned (eval_expr env e))
  | Ast.If_stmt (c, then_, else_) :: rest ->
      let branch = if Mvalue.truthy (eval_expr env c) then then_ else else_ in
      let env, last = exec_stmts env last branch in
      exec_stmts env last rest

let run env program =
  match exec_stmts env Mvalue.Null program with
  | _, last -> last
  | exception Returned v -> v

let run_string env src = run env (Parser.parse_program src)
