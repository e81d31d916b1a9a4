package tier

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseChain parses a compact chain spec of the form
//
//	tier[/tier...]
//	tier := name[:opt[,opt...]]
//	opt  := lat=<ns> | rbw=<GB/s> | wbw=<GB/s> | bw=<GB/s>
//	      | cap=<pages> | cap=<pct>% | <pct>%
//
// A name matching a Preset (DRAM, CXL, PM, NVMe; case-insensitive)
// starts from the preset's latency/bandwidth figures, which individual
// opts may override; any other name must spell out lat and bandwidth.
// "bw" sets read and write bandwidth together. A bare "25%" opt is
// shorthand for "cap=25%". Capacity left unset means unbounded, which
// Validate accepts only on the last tier.
//
// Examples:
//
//	DRAM:25%/PM                    — the paper machine's shape
//	DRAM:12.5%/CXL:25%/PM          — three-tier with a CXL middle
//	hbm:lat=50,bw=400,cap=1024/DRAM
//
// The returned chain always passes Validate.
func ParseChain(s string) (Chain, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("tier: empty chain spec")
	}
	parts := strings.Split(s, "/")
	c := make(Chain, 0, len(parts))
	for _, part := range parts {
		d, err := parseTier(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		c = append(c, d)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseTier(s string) (Desc, error) {
	name, opts, hasOpts := strings.Cut(s, ":")
	d, isPreset := Preset(name)
	if !isPreset {
		d = Desc{Name: name}
	}
	if err := checkName(name); err != nil {
		return Desc{}, err
	}
	if !isPreset {
		d.Name = name
	}
	if !hasOpts {
		return d, nil
	}
	for _, opt := range strings.Split(opts, ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			return Desc{}, fmt.Errorf("tier %s: empty option", name)
		}
		key, val, hasEq := strings.Cut(opt, "=")
		if !hasEq {
			// Bare "25%" is capacity shorthand.
			key, val = "cap", opt
		}
		switch key {
		case "lat":
			f, err := parsePositive(name, "lat", val)
			if err != nil {
				return Desc{}, err
			}
			d.LatencyNs = f
		case "rbw":
			f, err := parsePositive(name, "rbw", val)
			if err != nil {
				return Desc{}, err
			}
			d.ReadBWGBs = f
		case "wbw":
			f, err := parsePositive(name, "wbw", val)
			if err != nil {
				return Desc{}, err
			}
			d.WriteBWGBs = f
		case "bw":
			f, err := parsePositive(name, "bw", val)
			if err != nil {
				return Desc{}, err
			}
			d.ReadBWGBs, d.WriteBWGBs = f, f
		case "cap":
			if pct, ok := strings.CutSuffix(val, "%"); ok {
				f, err := parsePositive(name, "cap", pct)
				if err != nil {
					return Desc{}, err
				}
				d.CapacityPct, d.CapacityPages = f, 0
			} else {
				n, err := strconv.Atoi(val)
				if err != nil || n <= 0 {
					return Desc{}, fmt.Errorf("tier %s: bad cap %q (want positive page count or pct%%)", name, val)
				}
				d.CapacityPages, d.CapacityPct = n, 0
			}
		default:
			return Desc{}, fmt.Errorf("tier %s: unknown option %q", name, key)
		}
	}
	return d, nil
}

func parsePositive(tierName, key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f <= 0 || f != f || f > 1e18 {
		return 0, fmt.Errorf("tier %s: bad %s %q (want positive number)", tierName, key, val)
	}
	return f, nil
}
