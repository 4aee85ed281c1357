(* Fetch accounting is kept per node (not one shared list), in an array
   sized once at creation: the cluster knows its node count. *)
type t = {
  fetches : int list array;  (* per node, fetched class indexes, newest first *)
  dispatch : Isa.Dispatch.cache array;
      (* per node, like the fetch lists: each node's kernel translates
         into its own cache.  Living here (not in the kernel) keeps
         translations across a node restart — the engine's
         memory-identity check voids the stale ones. *)
  bridges : Ert.Bridge.t array;
      (* per node, the compiled bridge fragments for cross-instance
         landings, kept here as the paper keeps bridging routines with
         the code repository.  Fragments address kernel text, so the
         restart path clears them explicitly ({!Ert.Bridge.clear}); the
         hit/miss counters survive. *)
}

let create ?(n_nodes = 64) () =
  if n_nodes < 1 || n_nodes > Ert.Oid.max_nodes then
    invalid_arg "Code_repository.create: node count out of range";
  {
    fetches = Array.make n_nodes [];
    dispatch = Array.init n_nodes (fun _ -> Isa.Dispatch.create_cache ());
    bridges = Array.init n_nodes (fun _ -> Ert.Bridge.create ());
  }

let record_fetch t ~node ~class_index =
  if node < 0 || node >= Array.length t.fetches then
    invalid_arg "Code_repository.record_fetch: node id out of range";
  t.fetches.(node) <- class_index :: t.fetches.(node)

let total_fetches t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.fetches

let fetches_by_node t node = List.length t.fetches.(node)
let fetched_classes t ~node = List.rev t.fetches.(node)

let dispatch_cache t ~node =
  if node < 0 || node >= Array.length t.dispatch then
    invalid_arg "Code_repository.dispatch_cache: node id out of range";
  t.dispatch.(node)

let bridge_cache t ~node =
  if node < 0 || node >= Array.length t.bridges then
    invalid_arg "Code_repository.bridge_cache: node id out of range";
  t.bridges.(node)

let bridge_stats t =
  Array.fold_left
    (fun (h, m) b -> (h + Ert.Bridge.hits b, m + Ert.Bridge.misses b))
    (0, 0) t.bridges
