type key = string (* hex digest: filename- and log-safe *)

let key ~stage ~version fp =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%s" stage version (Fingerprint.to_hex fp)))

let key_id k = k

type entry = { payload : string; mutable tick : int }

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  lock : Mutex.t;
  cache_dir : string option;
}

let create ?(capacity = 512) ?dir () =
  {
    capacity = Stdlib.max 1 capacity;
    table = Hashtbl.create 64;
    clock = 0;
    lock = Mutex.create ();
    cache_dir = dir;
  }

let disk_file t k =
  Option.map (fun d -> Filename.concat d (k ^ ".bin")) t.cache_dir

(* ---------- disk entries ----------

   Format:  magic line, payload digest (hex) line, payload bytes.
   Any read failure — short file, bad magic, digest mismatch — is a
   miss; the offending file is deleted so it cannot fail again. *)

let magic = "same-cache/1"

let read_disk path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let result =
        try
          let m = input_line ic in
          let digest = input_line ic in
          let len = in_channel_length ic - pos_in ic in
          if len < 0 then None
          else
            let payload = really_input_string ic len in
            if
              String.equal m magic
              && String.equal digest (Digest.to_hex (Digest.string payload))
            then Some payload
            else None
        with Sys_error _ | End_of_file -> None
      in
      close_in_noerr ic;
      if result = None then (try Sys.remove path with Sys_error _ -> ());
      result

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_disk t path payload =
  try
    Option.iter mkdir_p t.cache_dir;
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc magic;
    output_char oc '\n';
    output_string oc (Digest.to_hex (Digest.string payload));
    output_char oc '\n';
    output_string oc payload;
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> ()

(* ---------- memory tier ---------- *)

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, tick) when tick <= e.tick -> acc
        | _ -> Some (k, e.tick))
      t.table None
  in
  match victim with Some (k, _) -> Hashtbl.remove t.table k | None -> ()

let insert_memory t k payload =
  (match Hashtbl.find_opt t.table k with
  | Some e -> touch t e
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_oldest t;
      let e = { payload; tick = 0 } in
      touch t e;
      Hashtbl.add t.table k e);
  ()

let find t k =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some e ->
      touch t e;
      Mutex.unlock t.lock;
      Some (`Memory e.payload)
  | None -> (
      Mutex.unlock t.lock;
      match disk_file t k with
      | None -> None
      | Some path -> (
          match read_disk path with
          | None -> None
          | Some payload ->
              Mutex.lock t.lock;
              insert_memory t k payload;
              Mutex.unlock t.lock;
              Some (`Disk payload)))

let store t k payload =
  Mutex.lock t.lock;
  insert_memory t k payload;
  Mutex.unlock t.lock;
  match disk_file t k with
  | None -> ()
  | Some path -> write_disk t path payload

let memory_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let in_memory t k =
  Mutex.lock t.lock;
  let b = Hashtbl.mem t.table k in
  Mutex.unlock t.lock;
  b
