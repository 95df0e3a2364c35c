module H = Hgp_hierarchy.Hierarchy

(* paths.(leaf).(j) is the within-level index of the leaf's Level-j
   ancestor; paths.(leaf).(h) is the leaf itself. *)
type t = { hierarchy : H.t; height : int; paths : int array array }

let prepare hierarchy =
  let height = H.height hierarchy in
  let paths =
    Array.init (H.num_leaves hierarchy) (fun leaf ->
        let p = Array.make (height + 1) leaf in
        for level = height downto 1 do
          p.(level - 1) <- H.parent_of hierarchy ~level p.(level)
        done;
        p)
  in
  { hierarchy; height; paths }

type verdict = { cost : float; max_load_ratio : float }

let check t ~eps ~demands ~edges assignment =
  let n = Array.length demands in
  let k = Array.length t.paths in
  if Array.length assignment <> n then
    Error
      (Printf.sprintf "assignment covers %d vertices, instance has %d"
         (Array.length assignment) n)
  else
    match Array.find_index (fun leaf -> leaf < 0 || leaf >= k) assignment with
    | Some v ->
      Error (Printf.sprintf "vertex %d is on leaf %d, hierarchy has %d leaves" v assignment.(v) k)
    | None -> (
      let cost = ref 0. in
      Array.iter
        (fun (u, v, w) ->
          let pu = t.paths.(assignment.(u)) and pv = t.paths.(assignment.(v)) in
          (* climb from the leaves until both paths reach the same node *)
          let level = ref t.height in
          while pu.(!level) <> pv.(!level) do
            decr level
          done;
          cost := !cost +. (w *. H.cm_of t.hierarchy ~level:!level pu.(!level)))
        edges;
      let load =
        Array.init (t.height + 1) (fun level -> Array.make (H.nodes_at_level t.hierarchy level) 0.)
      in
      Array.iteri
        (fun v leaf ->
          let p = t.paths.(leaf) in
          for level = 0 to t.height do
            load.(level).(p.(level)) <- load.(level).(p.(level)) +. demands.(v)
          done)
        assignment;
      let bound = (1. +. eps) *. float_of_int (1 + t.height) in
      let worst = ref 0. and over = ref None in
      Array.iteri
        (fun level row ->
          Array.iteri
            (fun idx l ->
              let ratio = l /. H.capacity_of t.hierarchy ~level idx in
              if ratio > !worst then worst := ratio;
              if ratio > bound *. (1. +. 1e-9) && !over = None then
                over := Some (level, idx, ratio))
            row)
        load;
      match !over with
      | Some (level, idx, ratio) ->
        Error
          (Printf.sprintf "node %d of level %d is loaded %.4f times its capacity, bound %.4f"
             idx level ratio bound)
      | None -> Ok { cost = !cost; max_load_ratio = !worst })

let agrees ~claimed cost = Float.abs (claimed -. cost) <= 1e-9 *. Float.max 1. (Float.abs cost)
