(* Vectors: native indexing with bounds checks on every architecture,
   by-value marshalling across migrations and invocations, GC tracing. *)

module A = Isa.Arch
module V = Ert.Value

let check = Alcotest.check

let run_cluster ?(archs = [ A.sparc ]) src ~op ~args =
  let cl = Core.Cluster.create ~archs () in
  ignore (Core.Cluster.compile_and_load cl ~name:"vec" src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op ~args in
  (Core.Cluster.run_until_result cl tid, cl)

let expect_int ?archs src expected =
  match run_cluster ?archs src ~op:"start" ~args:[] with
  | Some (V.Vint v), _ -> check Alcotest.int "result" expected (Int32.to_int v)
  | other, _ ->
    Alcotest.failf "expected %d, got %s" expected
      (match other with
      | Some v -> Format.asprintf "%a" V.pp v
      | None -> "none")

let sieve_src =
  {|
object Main
  operation start[] -> [r : int]
    var n : int <- 50
    var sieve : vector[bool] <- vector[bool, n]
    var i : int <- 2
    var count : int <- 0
    loop
      exit when i >= n
      if not sieve[i] then
        count <- count + 1
        var j : int <- i + i
        loop
          exit when j >= n
          sieve[j] <- true
          j <- j + i
        end loop
      end if
      i <- i + 1
    end loop
    r <- count
  end start
end Main
|}

let test_sieve_all_archs () =
  (* 15 primes below 50 *)
  List.iter (fun arch -> expect_int ~archs:[ arch ] sieve_src 15) A.all

let test_size_and_sum () =
  expect_int
    {|
object Main
  operation start[] -> [r : int]
    var v : vector[int] <- vector[int, 10]
    var i : int <- 0
    loop
      exit when i >= v.size[]
      v[i] <- i * i
      i <- i + 1
    end loop
    var sum : int <- 0
    i <- 0
    loop
      exit when i >= v.size[]
      sum <- sum + v[i]
      i <- i + 1
    end loop
    r <- sum + v.size[] * 1000
  end start
end Main
|}
    (285 + 10000)

let test_aliasing_is_local () =
  (* two variables referencing the same vector see each other's writes *)
  expect_int
    {|
object Main
  operation start[] -> [r : int]
    var a : vector[int] <- vector[int, 3]
    var b : vector[int] <- a
    a[0] <- 41
    b[0] <- b[0] + 1
    r <- a[0]
  end start
end Main
|}
    42

let test_bounds_trap () =
  List.iter
    (fun arch ->
      List.iter
        (fun idx ->
          let src =
            Printf.sprintf
              {|
object Main
  operation start[] -> [r : int]
    var v : vector[int] <- vector[int, 4]
    r <- v[%s]
  end start
end Main
|}
              idx
          in
          match run_cluster ~archs:[ arch ] src ~op:"start" ~args:[] with
          | _ -> Alcotest.failf "%s: index %s must trap" arch.A.id idx
          | exception Ert.Kernel.Runtime_error msg ->
            if not (String.length msg > 0) then Alcotest.fail "empty error")
        [ "4"; "0 - 1"; "100" ])
    [ A.vax; A.sun3; A.sparc ]

let test_strings_in_vectors () =
  let src =
    {|
object Main
  operation start[] -> [r : string]
    var v : vector[string] <- vector[string, 3]
    v[0] <- "a"
    v[1] <- v[0] + "b"
    v[2] <- v[1] + "c"
    r <- v[2]
  end start
end Main
|}
  in
  match run_cluster src ~op:"start" ~args:[] with
  | Some (V.Vstr s), _ -> check Alcotest.string "result" "abc" s
  | _ -> Alcotest.fail "expected a string"

let migration_src =
  {|
object Agent
  operation go[] -> [r : int]
    var v : vector[int] <- vector[int, 8]
    var names : vector[string] <- vector[string, 2]
    var i : int <- 0
    loop
      exit when i >= 8
      v[i] <- (i + 1) * 11
      i <- i + 1
    end loop
    names[0] <- "alpha"
    names[1] <- "beta"
    move self to 1
    var sum : int <- 0
    i <- 0
    loop
      exit when i >= v.size[]
      sum <- sum + v[i]
      i <- i + 1
    end loop
    if names[0] + names[1] == "alphabeta" then
      sum <- sum + 10000
    end if
    move self to 0
    r <- sum
  end go
end Agent

object Main
  operation start[] -> [r : int]
    var a : Agent <- new Agent
    r <- a.go[]
  end start
end Main
|}

let test_vectors_migrate () =
  (* 11 * (1+..+8) = 396, plus the string vector marker *)
  List.iter
    (fun pair ->
      let cl = Core.Cluster.create ~archs:pair () in
      ignore (Core.Cluster.compile_and_load cl ~name:"vecmig" migration_src);
      let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
      let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
      match Core.Cluster.run_until_result cl tid with
      | Some (V.Vint v) ->
        check Alcotest.int (String.concat "<->" (List.map (fun a -> a.A.id) pair)) 10396
          (Int32.to_int v)
      | _ -> Alcotest.fail "no result")
    [ [ A.sparc; A.vax ]; [ A.vax; A.sun3 ]; [ A.hp9000_433; A.sparc ] ]

let test_vector_as_rpc_argument () =
  let src =
    {|
object Server
  operation total[v : vector[int]] -> [r : int]
    var sum : int <- 0
    var i : int <- 0
    loop
      exit when i >= v.size[]
      sum <- sum + v[i]
      i <- i + 1
    end loop
    r <- sum
  end total
end Server

object Main
  operation start[] -> [r : int]
    var s : Server <- new Server
    move s to 1
    var v : vector[int] <- vector[int, 5]
    var i : int <- 0
    loop
      exit when i >= 5
      v[i] <- i + 1
      i <- i + 1
    end loop
    // vectors marshal by value: the remote side sums a copy
    r <- s.total[v]
  end start
end Main
|}
  in
  expect_int ~archs:[ A.sparc; A.vax ] src 15

let test_vector_as_root_argument_and_result () =
  let src =
    {|
object Main
  operation reverse[v : vector[int]] -> [r : vector[int]]
    var n : int <- v.size[]
    var out : vector[int] <- vector[int, n]
    var i : int <- 0
    loop
      exit when i >= n
      out[i] <- v[n - 1 - i]
      i <- i + 1
    end loop
    r <- out
  end reverse
end Main
|}
  in
  let input = V.Vvec (Emc.Ast.Tint, [| V.Vint 1l; V.Vint 2l; V.Vint 3l |]) in
  match run_cluster ~archs:[ A.vax ] src ~op:"reverse" ~args:[ input ] with
  | Some (V.Vvec (_, [| V.Vint 3l; V.Vint 2l; V.Vint 1l |])), _ -> ()
  | Some v, _ -> Alcotest.failf "wrong result %s" (Format.asprintf "%a" V.pp v)
  | None, _ -> Alcotest.fail "no result"

let test_gc_traces_vectors () =
  let src =
    {|
object Keep
  var data : vector[string] <- nil
  operation fill[]
    data <- vector[string, 2]
    data[0] <- "precious"
    data[1] <- "cargo"
    var junk : vector[string] <- vector[string, 4]
    junk[0] <- "garbage"
  end fill
  operation peek[] -> [r : string]
    r <- data[0] + data[1]
  end peek
end Keep
|}
  in
  let cl = Core.Cluster.create ~archs:[ A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"vecgc" src);
  let keep = Core.Cluster.create_object cl ~node:0 ~class_name:"Keep" in
  let t1 = Core.Cluster.spawn cl ~node:0 ~target:keep ~op:"fill" ~args:[] in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl t1);
  let cy = Ert.Gc.create (Core.Cluster.kernel cl 0) in
  Ert.Gc.collect cy ~extra_roots:[ keep ] ~extra_addrs:[];
  if Ert.Gc.swept cy = 0 then Alcotest.fail "the junk vector should be swept";
  (* the kept vector's strings must have survived the collection *)
  let t2 = Core.Cluster.spawn cl ~node:0 ~target:keep ~op:"peek" ~args:[] in
  match Core.Cluster.run_until_result cl t2 with
  | Some (V.Vstr s) -> check Alcotest.string "strings survived" "preciouscargo" s
  | _ -> Alcotest.fail "peek failed"

let test_nested_vectors () =
  expect_int
    {|
object Main
  operation start[] -> [r : int]
    var grid : vector[vector[int]] <- vector[vector[int], 3]
    var i : int <- 0
    loop
      exit when i >= 3
      grid[i] <- vector[int, 3]
      var j : int <- 0
      loop
        exit when j >= 3
        grid[i][j] <- i * 3 + j
        j <- j + 1
      end loop
      i <- i + 1
    end loop
    r <- grid[0][0] + grid[1][1] + grid[2][2]
  end start
end Main
|}
    12

let suites =
  [
    ( "vectors",
      [
        Alcotest.test_case "sieve on every architecture" `Quick test_sieve_all_archs;
        Alcotest.test_case "size and sum" `Quick test_size_and_sum;
        Alcotest.test_case "aliasing is local" `Quick test_aliasing_is_local;
        Alcotest.test_case "bounds trap" `Quick test_bounds_trap;
        Alcotest.test_case "strings in vectors" `Quick test_strings_in_vectors;
        Alcotest.test_case "vectors migrate by value" `Quick test_vectors_migrate;
        Alcotest.test_case "vector as RPC argument" `Quick test_vector_as_rpc_argument;
        Alcotest.test_case "vector root argument and result" `Quick
          test_vector_as_root_argument_and_result;
        Alcotest.test_case "GC traces vectors" `Quick test_gc_traces_vectors;
        Alcotest.test_case "nested vectors" `Quick test_nested_vectors;
      ] );
  ]
