open Ssi_util

exception Not_in_simulation
exception Stuck of { count : int; labels : string list }

type state = {
  events : (unit -> unit) Pqueue.t;
  mutable now : float;
  mutable seq : int;
  mutable unfinished : int;  (* processes started but not yet returned *)
}

(* A single simulation runs at a time per OCaml thread; processes find their
   simulation through this variable rather than threading it explicitly. *)
let current : state option ref = ref None

let get () = match !current with None -> raise Not_in_simulation | Some st -> st
let running () = !current <> None

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let schedule st ~after f =
  st.seq <- st.seq + 1;
  Pqueue.push st.events ~time:(st.now +. after) ~seq:st.seq f

let rec exec_process st body =
  let open Effect.Deep in
  try_with
    (fun () ->
      body ();
      st.unfinished <- st.unfinished - 1)
    ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  schedule st ~after:d (fun () -> continue k ()))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then invalid_arg "Sim: process resumed twice";
                      resumed := true;
                      schedule st ~after:0. (fun () -> continue k ())))
          | _ -> None);
    }

and spawn_in st body =
  st.unfinished <- st.unfinished + 1;
  schedule st ~after:0. (fun () -> exec_process st body)

(* Wait-queue id of every process suspended in {!wait}, by suspension;
   labels are formatted only when someone asks for them. *)
let suspended_at : (int, int) Hashtbl.t = Hashtbl.create 32
let suspend_counter = ref 0

let suspended_labels () =
  Hashtbl.fold (fun _ q acc -> ("waitq:" ^ string_of_int q) :: acc) suspended_at []

let run main =
  (match !current with
  | Some _ -> invalid_arg "Sim.run: a simulation is already running"
  | None -> ());
  let st = { events = Pqueue.create (); now = 0.; seq = 0; unfinished = 0 } in
  current := Some st;
  let finish () =
    current := None;
    Hashtbl.reset suspended_at
  in
  (try
     spawn_in st main;
     let rec loop () =
       match Pqueue.pop st.events with
       | None -> ()
       | Some (time, _, thunk) ->
           st.now <- time;
           thunk ();
           loop ()
     in
     loop ()
   with e ->
     finish ();
     raise e);
  let t = st.now in
  let stuck = st.unfinished in
  let labels = if stuck > 0 then List.sort compare (suspended_labels ()) else [] in
  finish ();
  if stuck > 0 then begin
    List.iter (fun l -> Printf.eprintf "[sim] stuck process at %s\n%!" l) labels;
    raise (Stuck { count = stuck; labels })
  end;
  t

let spawn body = spawn_in (get ()) body

let at ~after body =
  let st = get () in
  st.unfinished <- st.unfinished + 1;
  schedule st ~after:(Float.max 0. after) (fun () -> exec_process st body)
let delay d = if d > 0. then Effect.perform (Delay d) else ignore (get ())
let now () = (get ()).now
let yield () = Effect.perform (Delay 0.)
let suspend register = Effect.perform (Suspend register)

let wait q =
  incr suspend_counter;
  let sid = !suspend_counter in
  Hashtbl.replace suspended_at sid (Waitq.id q);
  suspend (fun resume ->
      Waitq.enqueue q (fun () ->
          Hashtbl.remove suspended_at sid;
          resume ()))

let scheduler =
  { Waitq.suspend = wait; charge = delay; now }

type resource = {
  cap : int;
  mutable used : int;
  waiters : Waitq.t;
  mutable busy : float;
}

let resource ~capacity =
  assert (capacity > 0);
  { cap = capacity; used = 0; waiters = Waitq.create (); busy = 0. }

let capacity r = r.cap

let acquire r =
  if r.used < r.cap then r.used <- r.used + 1
  else
    (* The releaser hands the slot over without decrementing [used], so on
       resumption this process already owns it. *)
    wait r.waiters

let release r =
  assert (r.used > 0);
  if not (Waitq.wake_one r.waiters) then r.used <- r.used - 1

let use r d =
  acquire r;
  (try delay d
   with e ->
     release r;
     raise e);
  r.busy <- r.busy +. d;
  release r

let busy_time r = r.busy
