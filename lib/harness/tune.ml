module Rng = Ivan_tensor.Rng
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Clock = Ivan_clock.Clock

type trial = { alpha : float; theta : float; speedup : float }

type outcome = { best : trial; trials : trial list }

let search ?(trials = 20) ?(seed = 20240705) ~setting ~technique ~net ~updated instances =
  if instances = [] then invalid_arg "Tune.search: empty calibration workload";
  let rng = Rng.create seed in
  let { Runner.analyzer; heuristic; config } = setting in
  (* Shared preparation: original proof trees and baseline timings. *)
  let prepared =
    List.map
      (fun (inst : Workload.instance) ->
        let prop = inst.Workload.prop in
        let original = Ivan.verify_original ~analyzer ~heuristic ~config ~net ~prop in
        let baseline, baseline_time =
          Clock.timed (fun () ->
              Ivan.verify_original ~analyzer ~heuristic ~config ~net:updated ~prop)
        in
        (inst, original, baseline.Bab.verdict <> Bab.Exhausted, baseline_time))
      instances
  in
  let evaluate alpha theta =
    let base_total = ref 0.0 and tech_total = ref 0.0 in
    List.iter
      (fun ((inst : Workload.instance), original, baseline_solved, baseline_time) ->
        if baseline_solved then begin
          let _run, tech_time =
            Clock.timed (fun () ->
                Ivan.verify_updated ~analyzer ~heuristic
                  ~config:{ config with Ivan.technique; alpha; theta }
                  ~original_run:original ~updated ~prop:inst.Workload.prop)
          in
          base_total := !base_total +. baseline_time;
          tech_total := !tech_total +. tech_time
        end)
      prepared;
    { alpha; theta; speedup = (if !tech_total > 0.0 then !base_total /. !tech_total else 1.0) }
  in
  let candidates =
    (Ivan.default_config.Ivan.alpha, Ivan.default_config.Ivan.theta)
    :: List.init (max 0 (trials - 1)) (fun _ ->
           let alpha = Rng.float rng 1.0 in
           (* theta: log-uniform-ish over [0.001, 0.1] plus mass at 0. *)
           let theta =
             if Rng.float rng 1.0 < 0.15 then 0.0
             else 0.001 *. exp (Rng.float rng 1.0 *. log 100.0)
           in
           (alpha, theta))
  in
  let evaluated = List.map (fun (alpha, theta) -> evaluate alpha theta) candidates in
  let best =
    List.fold_left
      (fun acc t -> if t.speedup > acc.speedup then t else acc)
      (List.hd evaluated) (List.tl evaluated)
  in
  { best; trials = evaluated }
