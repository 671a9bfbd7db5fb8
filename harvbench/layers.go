package main

import "fmt"

// layerUnits lists every per-layer metric of a traced run with its unit.
// A traced run prints exactly these.
var layerUnits = map[string]string{
	"core.step_ns":                   "ns",
	"core.steps_per_sim_s":           "1/s",
	"core.rejected_per_sim_s":        "1/s",
	"core.refactors_per_sim_s":       "1/s",
	"core.stability_per_sim_s":       "1/s",
	"core.solves_per_step":           "count",
	"core.factor_ms_per_sim_s":       "ms/s",
	"core.stability_ms_per_sim_s":    "ms/s",
	"core.allocs_per_step":           "count",
	"implicit.trap_ms_per_sim_s":     "ms/s",
	"implicit.newton_iters_per_step": "count",
	"implicit.lu_factors_per_sim_s":  "1/s",
	"blocks.accel_ns":                "ns",
	"harvester.assemble_us":          "us",
	"harvester.run_ms_per_sim_s":     "ms/s",
	"batch.job_self_us":              "us",
	"batch.probe_us":                 "us",
	"batch.march_ms_per_sim_s":       "ms/s",
	"batch.lockstep_gain":            "x",
	"batch.allocs_per_job":           "count",
	"batch.allocs_per_member":        "count",
	"batch.cache_hit_frac":           "ratio",
	"batch.cache_shared":             "count",
	"batch.direct_warm_ms":           "ms",
	"wire.expand_us":                 "us",
	"wire.encode_us_per_line":        "us",
	"wire.bytes_per_line":            "B",
	"server.queue_ms":                "ms",
	"server.exec_ms":                 "ms",
	"server.transport_ms":            "ms",
	"server.warm_over_direct":        "x",
	"shard.shard_ms":                 "ms",
	"shard.merge_ms":                 "ms",
	"shard.coord_over_server":        "x",
	"shard.retries":                  "count",
	"shard.resharded":                "count",
	"shard.lost_workers":             "count",
	"tracing.overhead_frac":          "ratio",
	"tracing.spans_per_point":        "count",
}

// clientLayers are the benchmark's own spans, which wrap calls into the
// program rather than being recorded by it.
var clientLayers = map[string]bool{"cycle": true, "run": true, "request": true}

// layerMetrics computes the per-layer metrics of a traced run. Metrics
// of the traffic come from the traced window and its spans; a service
// layer the workload does not pass through is read from the ladder's
// traced warm sweep instead; the rest come from the ladder, run on the
// workload's own design point.
func layerMetrics(wl workload, name string, off, on window, rep *report) error {
	spans, pts, ops, err := wl.traceOf()
	if err != nil {
		return err
	}
	tree := newSpanTree(spans)
	opUS := mean(append(tree.durs("cycle"), tree.durs("request")...))
	tree.attribution(rep.out, name+", traced window", ops, opUS)
	lad, err := runLadder(wl.point(), wl.base().seed)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	lad.print(rep.out, wl.point().Duration)

	add := func(metric string, v float64, n int, note string) {
		rep.add(metric, layerUnits[metric], v, n, note)
	}
	add("tracing.overhead_frac", on.cpuPerPoint()/off.cpuPerPoint()-1, len(on.samples), "traced / untraced CPU per result - 1")
	service := 0
	for _, s := range spans {
		if !clientLayers[s.Name] {
			service++
		}
	}
	add("tracing.spans_per_point", float64(service)/float64(max(pts, 1)), pts, "")
	onPts := on.points()
	add("batch.cache_hit_frac", float64(on.sum(func(s sample) int { return s.cached }))/float64(max(onPts, 1)), onPts, "")
	add("batch.cache_shared", float64(on.sum(func(s sample) int { return s.shared })), onPts, "")
	jobs := tree.selfs("job")
	add("batch.job_self_us", mean(jobs), len(jobs), "job span minus probe and march")
	probes := tree.durs("probe")
	add("batch.probe_us", mean(probes), len(probes), "")

	srv, note := tree, "traced window"
	if len(tree.durs("exec")) == 0 {
		srv, note = lad.srv, "ladder server sweep"
	}
	expand := append(srv.durs("expand"), srv.durs("worker-expand")...)
	add("wire.expand_us", mean(expand), len(expand), note)
	queue, exec, transport := srv.durs("queue"), srv.durs("exec"), srv.transport()
	add("server.queue_ms", mean(queue)/1e3, len(queue), note)
	add("server.exec_ms", mean(exec)/1e3, len(exec), note)
	add("server.transport_ms", mean(transport)/1e3, len(transport), note+"; caller span minus exec")
	crd, note := tree, "traced window"
	if len(tree.durs("shard")) == 0 {
		crd, note = lad.crd, "ladder coordinator sweep"
	}
	shards, merges := crd.durs("shard"), crd.merge()
	add("shard.shard_ms", mean(shards)/1e3, len(shards), note)
	add("shard.merge_ms", mean(merges)/1e3, len(merges), note+"; request minus slowest shard")
	faults := wl.base().faults
	add("shard.retries", float64(faults[0]+lad.faults[0]), 0, "")
	add("shard.resharded", float64(faults[1]+lad.faults[1]), 0, "")
	add("shard.lost_workers", float64(faults[2]+lad.faults[2]), 0, "")
	for _, k := range sortedKeys(lad.m) {
		add(k, lad.m[k], 1, "ladder")
	}
	for k := range layerUnits {
		if _, ok := rep.metrics[k]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", k)
		}
	}
	if len(rep.metrics) != len(layerUnits) {
		return fmt.Errorf("traced run measured %d metrics, want %d", len(rep.metrics), len(layerUnits))
	}
	return nil
}
