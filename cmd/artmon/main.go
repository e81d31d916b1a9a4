// Command artmon is a live terminal monitor for a running artmemd: it
// polls the daemon's /metrics.json and /trace endpoints and redraws one
// dashboard frame per interval — tier occupancy, migration and access
// rates, sampler health, degraded status, and the tail of the RL
// decision trace. The missing `top` for the tiered-memory agent.
//
// Usage:
//
//	artmon                          # watch localhost:7600 at 1s cadence
//	artmon -url http://host:7600 -interval 250ms
//	artmon -once                    # print a single frame and exit
//
// Rates (migrations/s, accesses/s, ...) are derived from counter deltas
// between consecutive polls, so the first frame — and every -once frame
// — shows totals only.
//
// Against a chain daemon (artmemd -tiers with three or more tiers) the
// monitor reads /tiers and swaps the fast/slow panel for per-tier
// occupancy bars and per-boundary migration rows; two-tier and older
// daemons serve no /tiers and keep the classic layout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"artmem/internal/core"
	"artmem/internal/telemetry"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:7600", "artmemd base URL")
		interval = flag.Duration("interval", time.Second, "poll interval")
		tail     = flag.Int("tail", 8, "RL decision-trace tail length")
		once     = flag.Bool("once", false, "print a single frame and exit (no screen clearing)")
	)
	flag.Parse()
	base := strings.TrimSuffix(*url, "/")

	var prev *sample
	for {
		cur, err := poll(base, *tail)
		if err != nil {
			if *once {
				fmt.Fprintln(os.Stderr, "artmon:", err)
				os.Exit(1)
			}
			// A daemon restart should not kill the monitor: report and
			// keep polling.
			fmt.Fprintf(os.Stderr, "artmon: %v (retrying in %s)\n", err, *interval)
			prev = nil
			time.Sleep(*interval)
			continue
		}
		frame := renderFrame(cur, prev, base)
		if *once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear before each redraw.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		prev = cur
		time.Sleep(*interval)
	}
}

// sample is one poll of the daemon: the flattened metric snapshot plus
// the decision-trace tail, stamped with the local receive time (rates
// use wall-clock deltas between samples). tenants carries the
// multi-tenant control plane when the daemon serves /tenants; nil
// against a single-tenant (or older) daemon, which simply omits the
// per-tenant section from the frame.
type sample struct {
	at      time.Time
	vals    map[string]float64
	events  []telemetry.Event
	tenants *core.TenantsReport
	// slo carries the serving SLO burn-rate report when the daemon
	// serves /slo; nil against daemons without the endpoint (older
	// builds, or -serve off), which omit the burn panel.
	slo *telemetry.SLOReport
	// tiers carries the N-tier chain report when the daemon runs a
	// chain of three or more tiers and serves /tiers; nil against
	// two-tier and older daemons, which keep the classic fast/slow panel.
	tiers *core.TiersReport
}

// metric returns the value of a series key ("name" or
// `name{label="v"}`), 0 when absent.
func (s *sample) metric(key string) float64 { return s.vals[key] }

func poll(base string, tail int) (*sample, error) {
	s := &sample{at: time.Now(), vals: map[string]float64{}}

	body, err := get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	// Histograms snapshot as objects; everything numeric flattens into
	// vals and non-scalar series are skipped — the dashboard only needs
	// counters and gauges.
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("%s/metrics.json: %w", base, err)
	}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			s.vals[k] = f
		}
	}

	// Multi-tenant daemons serve /tenants; a 404 or any other failure
	// just means there is no per-tenant section to draw — the monitor
	// must keep working against single-tenant and older daemons.
	if body, err := get(base + "/tenants"); err == nil {
		var rep core.TenantsReport
		if json.Unmarshal(body, &rep) == nil && len(rep.Tenants) > 0 {
			s.tenants = &rep
		}
	}

	// Same degrade rule for the serving SLO monitor: daemons without
	// /slo (older builds, -serve off) simply get no burn panel.
	if body, err := get(base + "/slo"); err == nil {
		var rep telemetry.SLOReport
		if json.Unmarshal(body, &rep) == nil && len(rep.Tenants) > 0 {
			s.slo = &rep
		}
	}

	// Chain daemons (three or more tiers) serve /tiers; a two-tier daemon
	// 404s it and the frame keeps its fast/slow panel.
	if body, err := get(base + "/tiers"); err == nil {
		var rep core.TiersReport
		if json.Unmarshal(body, &rep) == nil && len(rep.Tiers) > 0 {
			s.tiers = &rep
		}
	}

	body, err = get(fmt.Sprintf("%s/trace?n=%d", base, tail))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	for {
		var e telemetry.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s/trace: %w", base, err)
		}
		s.events = append(s.events, e)
	}
	return s, nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// renderFrame draws one dashboard frame. prev supplies the counter
// baseline for rates; nil renders totals only.
func renderFrame(cur, prev *sample, base string) string {
	var b strings.Builder
	degraded := ""
	if cur.metric("artmem_degraded") > 0 {
		degraded = "  [DEGRADED: heuristic fallback active]"
	}
	fmt.Fprintf(&b, "artmon %s  %s%s\n\n", base,
		cur.at.Format("15:04:05"), degraded)

	dt := 0.0
	if prev != nil {
		dt = cur.at.Sub(prev.at).Seconds()
	}

	if cur.tiers != nil {
		// Chain daemon: per-tier occupancy bars and per-boundary agents
		// replace the two-tier panel, whose per-agent series cover only
		// boundary 0 there.
		b.WriteString(renderTiers(cur, prev, dt))
	} else {
		// Tier occupancy as used/capacity bars.
		for _, tier := range []string{"fast", "slow"} {
			used := cur.metric(fmt.Sprintf("artmem_tier_pages{tier=%q}", tier))
			capac := cur.metric(fmt.Sprintf("artmem_tier_capacity_pages{tier=%q}", tier))
			b.WriteString(gaugeBar(tier, used, capac))
		}
		b.WriteByte('\n')

		// Counters worth watching, with per-second rates when a previous
		// sample exists.
		rows := []struct{ label, key string }{
			{"accesses fast", `artmem_accesses_total{tier="fast"}`},
			{"accesses slow", `artmem_accesses_total{tier="slow"}`},
			{"migrations", "artmem_migrations_total"},
			{"promotions", "artmem_promotions_total"},
			{"demotions", "artmem_demotions_total"},
			{"migration fails", "artmem_migration_failures_total"},
			{"pebs samples", "artmem_pebs_samples_total"},
			{"pebs drops", "artmem_pebs_samples_dropped_total"},
			{"rl decisions", "artmem_decisions_total"},
		}
		fmt.Fprintf(&b, "%-16s %14s %12s\n", "counter", "total", "per second")
		for _, r := range rows {
			v := cur.metric(r.key)
			rate := "-"
			if prev != nil && dt > 0 {
				rate = fmt.Sprintf("%.1f", (v-prev.metric(r.key))/dt)
			}
			fmt.Fprintf(&b, "%-16s %14.0f %12s\n", r.label, v, rate)
		}
		b.WriteByte('\n')

		// Agent operating point.
		fmt.Fprintf(&b, "agent: state %.0f  threshold %.0f  epsilon %.2f  period %.0f\n",
			cur.metric("artmem_state"), cur.metric("artmem_threshold"),
			cur.metric("artmem_rl_epsilon"), cur.metric("artmem_pebs_sampling_period"))
		lru := []string{}
		for _, l := range []string{"fast_active", "fast_inactive", "slow_active", "slow_inactive"} {
			lru = append(lru, fmt.Sprintf("%s %.0f",
				l, cur.metric(fmt.Sprintf("artmem_lru_pages{list=%q}", l))))
		}
		fmt.Fprintf(&b, "lru:   %s\n\n", strings.Join(lru, "  "))
	}

	// Serving frontend, only when the daemon runs -serve (the section
	// keys off the connections gauge, which registers with the server).
	if _, serving := cur.vals["artmem_serve_connections"]; serving {
		b.WriteString(renderServing(cur, prev, dt))
	}

	// Serving SLO burn rates, only when the daemon serves /slo.
	if cur.slo != nil {
		b.WriteString(renderSLO(cur.slo))
	}

	// Per-tenant control plane, only when the daemon serves /tenants.
	if cur.tenants != nil {
		b.WriteString(renderTenants(cur.tenants))
	}

	// Decision-trace tail, newest last.
	fmt.Fprintln(&b, "recent decisions (state, reward, quota, threshold, promoted):")
	if len(cur.events) == 0 {
		fmt.Fprintln(&b, "  (none yet)")
	}
	sort.SliceStable(cur.events, func(i, j int) bool {
		return cur.events[i].Seq < cur.events[j].Seq
	})
	for _, e := range cur.events {
		if e.Kind != telemetry.KindDecision {
			fmt.Fprintf(&b, "  %6d  %-9s %s\n", e.Seq, e.Kind, e.Detail)
			continue
		}
		fmt.Fprintf(&b, "  %6d  s=%d r=%+.2f quota=%d thr=%d promoted=%d\n",
			e.Seq, e.State, e.Reward, e.Quota, e.Threshold, e.Promoted)
	}
	return b.String()
}

// renderServing draws the streaming access API section: open
// connections, queued records, batch outcomes (acked vs rejected by
// reason) with rates, and applied record throughput. Only rendered
// when the daemon exposes the artmem_serve_* series (-serve active).
func renderServing(cur, prev *sample, dt float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving: %0.f conns  %0.f records queued\n",
		cur.metric("artmem_serve_connections"),
		cur.metric("artmem_serve_queue_records"))
	rows := []struct{ label, key string }{
		{"batches acked", "artmem_serve_batches_acked_total"},
		{"shed overload", `artmem_serve_batches_rejected_total{reason="overloaded"}`},
		{"rej draining", `artmem_serve_batches_rejected_total{reason="draining"}`},
		{"rej bad tenant", `artmem_serve_batches_rejected_total{reason="bad_tenant"}`},
		{"rej throttled", `artmem_serve_batches_rejected_total{reason="throttled"}`},
		{"records applied", `artmem_serve_records_total{op="access"}`},
		{"decode errors", "artmem_serve_decode_errors_total"},
	}
	for _, r := range rows {
		v := cur.metric(r.key)
		rate := "-"
		if prev != nil && dt > 0 {
			rate = fmt.Sprintf("%.1f", (v-prev.metric(r.key))/dt)
		}
		fmt.Fprintf(&b, "  %-16s %12.0f %12s/s\n", r.label, v, rate)
	}
	// Interpolated latency quantiles, exported by newer daemons as
	// sibling gauges of the serve histograms; absent keys render
	// nothing so old daemons keep their shorter section.
	if _, ok := cur.vals["artmem_serve_batch_latency_ns_p50"]; ok {
		fmt.Fprintf(&b, "  batch latency    p50 %s  p99 %s  p999 %s\n",
			ms(cur.metric("artmem_serve_batch_latency_ns_p50")),
			ms(cur.metric("artmem_serve_batch_latency_ns_p99")),
			ms(cur.metric("artmem_serve_batch_latency_ns_p999")))
		fmt.Fprintf(&b, "  queue wait       p50 %s  p99 %s  p999 %s\n",
			ms(cur.metric("artmem_serve_queue_wait_ns_p50")),
			ms(cur.metric("artmem_serve_queue_wait_ns_p99")),
			ms(cur.metric("artmem_serve_queue_wait_ns_p999")))
	}
	b.WriteByte('\n')
	return b.String()
}

// ms formats a nanosecond quantity in milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%.2fms", ns/1e6) }

// renderSLO draws the serving SLO burn panel: one row per tenant slot
// that has seen traffic, with its objective class and the latency/loss
// burn rate over each window. Burn 1.0 means the slot consumes error
// budget exactly as fast as the objective allows; sustained burn above
// 1 exhausts it.
func renderSLO(rep *telemetry.SLOReport) string {
	var b strings.Builder
	windows := make([]string, len(rep.WindowsNs))
	for i, w := range rep.WindowsNs {
		windows[i] = (time.Duration(w) * time.Nanosecond).String()
	}
	fmt.Fprintf(&b, "slo burn (windows %s):\n", strings.Join(windows, "/"))
	fmt.Fprintf(&b, "  %-6s %-8s %10s %10s  %-18s %-18s\n",
		"slot", "class", "batches", "lost", "latency burn", "loss burn")
	active := 0
	for _, t := range rep.Tenants {
		if len(t.Windows) == 0 {
			continue
		}
		widest := t.Windows[len(t.Windows)-1]
		if widest.Batches == 0 {
			continue
		}
		active++
		lat := make([]string, len(t.Windows))
		loss := make([]string, len(t.Windows))
		for i, w := range t.Windows {
			lat[i] = fmt.Sprintf("%.1f", w.LatencyBurn)
			loss[i] = fmt.Sprintf("%.1f", w.LossBurn)
		}
		fmt.Fprintf(&b, "  %-6d %-8s %10d %10d  %-18s %-18s\n",
			t.Slot, t.Class, widest.Batches, widest.Lost,
			strings.Join(lat, "/"), strings.Join(loss, "/"))
	}
	if active == 0 {
		fmt.Fprintln(&b, "  (no serving traffic yet)")
	}
	b.WriteByte('\n')
	return b.String()
}

// renderTiers draws the N-tier chain panel from the /tiers report: one
// occupancy bar per tier in chain order (with resident shadow copies
// when the chain runs non-exclusive), per-tier access totals, and one
// row per boundary with its migration counters, rates derived from the
// previous sample's report, and the boundary agent's operating point.
// Only rendered against chain daemons; two-tier daemons serve no /tiers
// and keep the classic panel.
func renderTiers(cur, prev *sample, dt float64) string {
	rep := cur.tiers
	var b strings.Builder
	mode := "exclusive"
	if rep.NonExclusive {
		mode = "non-exclusive"
	}
	fmt.Fprintf(&b, "chain (%d tiers, %s migration):\n", len(rep.Tiers), mode)

	// Rates diff against the previous poll's report, matched by index.
	prevTier := map[int]core.TierStatus{}
	prevBd := map[int]core.BoundaryStatus{}
	if prev != nil && prev.tiers != nil && dt > 0 {
		for _, t := range prev.tiers.Tiers {
			prevTier[t.Index] = t
		}
		for _, bd := range prev.tiers.Boundaries {
			prevBd[bd.Boundary] = bd
		}
	}
	rate := func(cur, prev uint64, have bool) string {
		if !have {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(cur-prev)/dt)
	}

	for _, t := range rep.Tiers {
		b.WriteString(gaugeBar(t.Name, float64(t.UsedPages), float64(t.Capacity)))
	}
	fmt.Fprintf(&b, "  %-6s %14s %10s %10s\n", "tier", "accesses", "per sec", "shadows")
	for _, t := range rep.Tiers {
		pt, ok := prevTier[t.Index]
		fmt.Fprintf(&b, "  %-6s %14d %10s %10d\n",
			t.Name, t.Accesses, rate(t.Accesses, pt.Accesses, ok), t.ShadowPages)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "  %-10s %10s %8s %10s %8s %9s %5s %6s\n",
		"boundary", "promos", "/s", "demos", "/s", "discards", "thr", "state")
	for _, bd := range rep.Boundaries {
		pb, ok := prevBd[bd.Boundary]
		state := "ok"
		if bd.Degraded {
			state = "DEGR"
		}
		fmt.Fprintf(&b, "  %-10s %10d %8s %10d %8s %9d %5d %6s\n",
			bd.Upper+"|"+bd.Lower,
			bd.Promotions, rate(bd.Promotions, pb.Promotions, ok),
			bd.Demotions, rate(bd.Demotions, pb.Demotions, ok),
			bd.ShadowDiscards, bd.Threshold, state)
	}
	if rep.NonExclusive {
		fmt.Fprintf(&b, "  shadow invalidates %d  reclaims %d\n",
			rep.ShadowInvalidates, rep.ShadowReclaims)
	}
	b.WriteByte('\n')
	return b.String()
}

// renderTenants draws the multi-tenant section: arbiter posture, slot
// occupancy and the lifecycle ledger, plus one row per tenant with its
// SLO class, fast-tier occupancy against quota, hit ratio, and
// admission-control pressure. Daemons predating the lifecycle plane
// serve /tenants without capacity or class fields; those unmarshal to
// zero values and the extra columns degrade to placeholders.
func renderTenants(rep *core.TenantsReport) string {
	var b strings.Builder
	occupancy := ""
	if rep.Capacity > 0 {
		occupancy = fmt.Sprintf("%d/%d active, ", rep.ActiveTenants, rep.Capacity)
	}
	fmt.Fprintf(&b, "tenants (%sarbiter %s, admission %v, rebalances %d):\n",
		occupancy, rep.ArbiterMode, rep.AdmissionControl, rep.Rebalances)
	if rep.Capacity > 0 {
		fmt.Fprintf(&b, "  lifecycle: regs %d  deregs %d  crashes %d  rollbacks %d  throttled %d\n",
			rep.Registrations, rep.Deregistrations, rep.Crashes,
			rep.ReclaimRollbacks, rep.Throttled)
	}
	fmt.Fprintf(&b, "  %-10s %-8s %9s %7s %10s %8s %8s %6s\n",
		"tenant", "class", "hit ratio", "fast", "quota", "promo", "denied", "state")
	for _, t := range rep.Tenants {
		class := t.SLOClass
		if class == "" {
			class = "-"
		}
		quota := "-"
		if t.QuotaPages > 0 {
			quota = fmt.Sprintf("%d", t.QuotaPages)
		}
		state := "ok"
		switch {
		case t.Degraded:
			state = "DEGR"
		case t.State == "draining":
			state = "drain"
		}
		fmt.Fprintf(&b, "  %-10s %-8s %9.3f %7d %10s %8d %8d %6s\n",
			t.Name, class, t.HitRatio, t.FastPages, quota, t.Promotions,
			t.AdmissionDenials, state)
	}
	b.WriteByte('\n')
	return b.String()
}

// gaugeBar renders a used/capacity occupancy bar.
func gaugeBar(label string, used, capac float64) string {
	const width = 40
	n := 0
	if capac > 0 {
		n = int(used / capac * width)
		if n > width {
			n = width
		}
	}
	pct := 0.0
	if capac > 0 {
		pct = 100 * used / capac
	}
	return fmt.Sprintf("%-5s [%-*s] %5.0f/%5.0f pages (%5.1f%%)\n",
		label, width, strings.Repeat("|", n), used, capac, pct)
}
