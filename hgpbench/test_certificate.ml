(* Tests of the benchmark's independent certificate checker. *)

module H = Hgp_hierarchy.Hierarchy
module Graph = Hgp_graph.Graph
module Instance = Hgp_core.Instance

let eps = 0.25

(* A 2x2 hierarchy: the root (cm 10) holds two sockets (cm 3), each holding
   two leaves (cm 0) of capacity 1. *)
let two_by_two = H.create ~degs:[| 2; 2 |] ~cm:[| 10.; 3.; 0. |] ~leaf_capacity:1.

(* The path 0 -1- 1 -2- 2 -3- 3. *)
let path_edges = [| (0, 1, 1.); (1, 2, 2.); (2, 3, 3.) |]
let half = Array.make 4 0.5

let check ?(demands = half) ?(edges = path_edges) a =
  Certificate.check (Certificate.prepare two_by_two) ~eps ~demands ~edges a

let hand_computed () =
  (* 0 and 1 share leaf 0 (cm 0); 1-2 meet in socket 0 (cm 3, weight 2);
     2-3 meet at the root (cm 10, weight 3): 0 + 6 + 30. *)
  match check [| 0; 0; 1; 2 |] with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
    Alcotest.(check (float 0.)) "Equation 1 by hand" 36. v.Certificate.cost;
    (* leaf 0 and socket 0 are the fullest: 1.0 / 1 and 1.5 / 2 *)
    Alcotest.(check (float 1e-12)) "max load ratio" 1. v.Certificate.max_load_ratio

let rejects label a ?demands () =
  match check ?demands a with
  | Ok _ -> Alcotest.failf "%s: corrupted assignment accepted" label
  | Error _ -> ()

let corrupted () =
  rejects "leaf out of range" [| 0; 0; 1; 4 |] ();
  rejects "negative leaf" [| 0; -1; 1; 2 |] ();
  rejects "vertex left out" [| 0; 0; 1 |] ();
  (* four unit demands on one leaf: 4 > (1 + 0.25) (1 + 2) = 3.75 *)
  rejects "overloaded leaf" [| 0; 0; 0; 0 |] ~demands:(Array.make 4 1.) ()

let agreement () =
  Alcotest.(check bool) "equal" true (Certificate.agrees ~claimed:36. 36.);
  Alcotest.(check bool) "summation order" true
    (Certificate.agrees ~claimed:(36. +. 1e-12) 36.);
  Alcotest.(check bool) "wrong cost" false (Certificate.agrees ~claimed:35.9 36.)

(* The checker and the program's own Equation-1 cost must agree on random
   assignments over regular and ragged hierarchies; the test may use [Cost]
   as a second opinion even though the checker must not. *)
let matches_program_cost () =
  let rng = Hgp_util.Prng.create 11 in
  List.iter
    (fun hy ->
      let cert = Certificate.prepare hy in
      for trial = 1 to 20 do
        let n = 20 + trial in
        let g = Hgp_graph.Generators.gnp_connected rng n 0.2 in
        let inst = Instance.uniform_demands g hy ~load_factor:0.3 in
        let a = Array.init n (fun _ -> Hgp_util.Prng.int rng (H.num_leaves hy)) in
        match
          Certificate.check cert ~eps:100. ~demands:inst.Instance.demands
            ~edges:(Graph.edges g) a
        with
        | Error msg -> Alcotest.fail msg
        | Ok v ->
          let expected = Hgp_core.Cost.assignment_cost inst a in
          if not (Certificate.agrees ~claimed:expected v.Certificate.cost) then
            Alcotest.failf "trial %d: checker %.17g, Cost %.17g" trial v.Certificate.cost
              expected
      done)
    [ H.Presets.dual_socket; H.Presets.ragged_rack; two_by_two ]

let () =
  Alcotest.run "hgpbench_certificate"
    [
      ( "certificate",
        [
          Alcotest.test_case "4-vertex path on 2x2, by hand" `Quick hand_computed;
          Alcotest.test_case "corrupted assignments rejected" `Quick corrupted;
          Alcotest.test_case "cost agreement tolerance" `Quick agreement;
          Alcotest.test_case "matches Cost.assignment_cost" `Quick matches_program_cost;
        ] );
    ]
