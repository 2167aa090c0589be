(* The system under test, measured from outside: `same` child processes
   (CPU and peak RSS from their own wait4 rusage) and the `same serve`
   daemon (CPU from /proc/<pid>/stat, peak RSS from VmHWM).  Nothing here
   reads the generator's own heap or clock of its own CPU. *)

external now : unit -> float = "perfbench_monotonic_s"
external clk_tck : unit -> int = "perfbench_clk_tck"
external wait4 : int -> int * float * float * int = "perfbench_wait4"

(* Children still running; killed and reaped at exit whatever happens, so
   the benchmark never leaves a process behind. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap pid =
  let r = wait4 pid in
  Hashtbl.remove live pid;
  r

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    live;
  Hashtbl.reset live

let () =
  at_exit kill_all;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* Every child runs with one worker domain: at two jobs on a two-core
   host the same System B fmeda ranged 212-600 ms against 334-406 ms at
   one job. *)
let child_env =
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 10 && String.sub kv 0 10 = "SAME_JOBS="))
  in
  Array.of_list ("SAME_JOBS=1" :: keep)

let spawn ?(stdout = "/dev/null") ?(stderr = "/dev/null") argv =
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let err =
    Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        Unix.create_process_env argv.(0) argv child_env Unix.stdin out err)
  in
  Hashtbl.replace live pid ();
  pid

type child = {
  code : int;  (** exit code, or minus the killing signal *)
  wall_s : float;  (** spawn to reaped exit *)
  cpu_s : float;  (** user + system of the child alone *)
  maxrss_kb : int;
}

(* One closed-loop CLI op: spawn, wait, nothing else in between. *)
let run_child ?stdout ?stderr argv =
  let t0 = now () in
  let pid = spawn ?stdout ?stderr argv in
  let code, user, sys, maxrss_kb = reap pid in
  { code; wall_s = now () -. t0; cpu_s = user +. sys; maxrss_kb }

(* ---------- daemon, from /proc ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of [pid], in seconds.  Fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name (which
   may itself contain spaces). *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  let fields =
    String.split_on_char ' '
      (String.sub s (close + 2) (String.length s - close - 2))
  in
  (* after the name: state is field 3, so utime (14) is index 11 *)
  let tick i = float_of_string (List.nth fields i) in
  (tick 11 +. tick 12) /. float_of_int (clk_tck ())

(* VmHWM of [pid] in KiB: the kernel's high-water mark of its RSS. *)
let proc_hwm_kb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* Ask [pid] to finish with SIGTERM and reap it; SIGKILL after a
   deadline so a wedged daemon cannot hold the benchmark. *)
let terminate pid =
  if Hashtbl.mem live pid then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10.0 in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.002;
          poll ()
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    poll ();
    Hashtbl.remove live pid
  end
