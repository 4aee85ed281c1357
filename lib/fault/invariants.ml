module K = Ert.Kernel
module T = Ert.Thread

type violation = {
  v_invariant : string;
  v_detail : string;
}

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.v_invariant v.v_detail

let v name fmt = Format.kasprintf (fun detail -> { v_invariant = name; v_detail = detail }) fmt

(* at most one resident (non-proxy) copy of any object, across all live
   nodes *)
let check_unique_residency ~n_nodes ~kernel ~crashed acc =
  let home : (Ert.Oid.t, int) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref acc in
  for i = 0 to n_nodes - 1 do
    if not (crashed i) then begin
      let k = kernel i in
      List.iter
        (fun (oid, addr) ->
          if K.is_resident k addr then
            match Hashtbl.find_opt home oid with
            | None -> Hashtbl.replace home oid i
            | Some j ->
              acc :=
                v "unique-residency" "object %s resident on both node %d and node %d"
                  (Ert.Oid.to_string oid) j i
                :: !acc)
        (K.objects k)
    end
  done;
  !acc

(* no registered segment is dead, and none belongs to a thread whose loss
   has already been reported — a resurrected segment would run a
   continuation the cluster promised was gone *)
let check_no_orphans ~n_nodes ~kernel ~crashed ~thread_failed acc =
  let acc = ref acc in
  for i = 0 to n_nodes - 1 do
    if not (crashed i) then
      List.iter
        (fun (seg : T.segment) ->
          (match seg.T.seg_status with
          | T.Dead ->
            acc := v "no-orphans" "node %d holds a registered dead segment %d" i seg.T.seg_id :: !acc
          | _ -> ());
          if seg.T.seg_status <> T.Dead && thread_failed seg.T.seg_thread then
            acc :=
              v "no-orphans" "node %d: segment %d of thread %d is live, but the thread was reported lost"
                i seg.T.seg_id seg.T.seg_thread
              :: !acc)
        (K.segments (kernel i))
  done;
  !acc

(* every queued monitor waiter is a registered segment blocked on that
   very monitor, and a monitor with waiters is actually locked *)
let check_monitors ~n_nodes ~kernel ~crashed acc =
  let acc = ref acc in
  for i = 0 to n_nodes - 1 do
    if not (crashed i) then begin
      let k = kernel i in
      List.iter
        (fun (oid, addr) ->
          if K.is_resident k addr then begin
            let waiters = K.monitor_waiters k ~obj_addr:addr in
            List.iter
              (fun (seg : T.segment) ->
                (match K.find_segment k seg.T.seg_id with
                | Some _ -> ()
                | None ->
                  acc :=
                    v "monitor-integrity"
                      "node %d: monitor of %s queues unregistered segment %d" i
                      (Ert.Oid.to_string oid) seg.T.seg_id
                    :: !acc);
                match seg.T.seg_status with
                | T.Blocked_monitor { mon_addr; _ } when mon_addr = addr -> ()
                | st ->
                  acc :=
                    v "monitor-integrity"
                      "node %d: monitor of %s queues segment %d in state %a" i
                      (Ert.Oid.to_string oid) seg.T.seg_id T.pp_status st
                    :: !acc)
              waiters;
            if waiters <> [] && not (K.monitor_locked k ~obj_addr:addr) then
              acc :=
                v "monitor-integrity" "node %d: monitor of %s has waiters but is unlocked"
                  i (Ert.Oid.to_string oid)
                :: !acc
          end)
        (K.objects k)
    end
  done;
  !acc

(* stack recycling: a pooled region is pooled once and runs no
   registered segment, and segments share a region only as the runs a
   split left behind — runs of one thread *)
let check_stacks ~n_nodes ~kernel ~crashed acc =
  let acc = ref acc in
  for i = 0 to n_nodes - 1 do
    if not (crashed i) then begin
      let k = kernel i in
      let pooled = Hashtbl.create 8 in
      List.iter
        (fun top ->
          if Hashtbl.mem pooled top then
            acc := v "stack-ownership" "node %d: stack %#x pooled twice" i top :: !acc;
          Hashtbl.replace pooled top ())
        (K.pooled_stacks k);
      let holder = Hashtbl.create 8 in
      List.iter
        (fun (seg : T.segment) ->
          let top = seg.T.seg_stack_top in
          if Hashtbl.mem pooled top then
            acc :=
              v "stack-ownership" "node %d: segment %d runs on pooled stack %#x" i
                seg.T.seg_id top
              :: !acc;
          match Hashtbl.find_opt holder top with
          | Some (other : T.segment) when other.T.seg_thread <> seg.T.seg_thread ->
            acc :=
              v "stack-ownership"
                "node %d: segments %d (thread %d) and %d (thread %d) share stack %#x" i
                other.T.seg_id other.T.seg_thread seg.T.seg_id seg.T.seg_thread top
              :: !acc
          | Some _ -> ()
          | None -> Hashtbl.replace holder top seg)
        (K.segments k)
    end
  done;
  !acc

let check_time ~n_nodes ~kernel ~last_times acc =
  let acc = ref acc in
  for i = 0 to n_nodes - 1 do
    let now = K.time_us (kernel i) in
    if now < last_times.(i) then
      acc :=
        v "time-monotonicity" "node %d clock ran backwards: %.3fus after %.3fus" i now
          last_times.(i)
        :: !acc;
    last_times.(i) <- Float.max now last_times.(i)
  done;
  !acc

let check ~n_nodes ~kernel ~crashed ~thread_failed ~last_times =
  []
  |> check_unique_residency ~n_nodes ~kernel ~crashed
  |> check_no_orphans ~n_nodes ~kernel ~crashed ~thread_failed
  |> check_monitors ~n_nodes ~kernel ~crashed
  |> check_stacks ~n_nodes ~kernel ~crashed
  |> check_time ~n_nodes ~kernel ~last_times
  |> List.rev
