package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// validatePrometheus checks that text parses as Prometheus text
// exposition format (version 0.0.4): well-formed HELP/TYPE comments,
// every TYPE preceded by a non-empty HELP for its family (a metric
// registered without SetHelp renders as an undocumented bare name),
// sample lines matching the metric grammar, histogram bucket counts
// cumulative with a trailing +Inf bucket equal to _count. It returns
// the first violation found, or nil.
func validatePrometheus(text string) error {
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	helpRe := regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	const labelSet = `\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}`
	const number = `NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?`
	sampleRe := regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name
			`(` + labelSet + `)?` + // labels
			` (` + number + `)` + // value
			`( [0-9]+)?$`) // optional timestamp

	types := map[string]string{}
	helped := map[string]bool{}
	// histogram invariants, keyed by series labels minus le
	type histState struct {
		lastCum  float64
		infCum   float64
		sawInf   bool
		count    float64
		sawCount bool
	}
	hists := map[string]*histState{}
	leRe := regexp.MustCompile(`le="((?:[^"\\]|\\.)*)"`)
	// labelsSansLE canonicalizes a label set with the le pair removed,
	// so bucket lines key to the same series as their _sum/_count.
	labelsSansLE := func(labels string) string {
		if labels == "" {
			return ""
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		var keep []string
		for _, p := range splitLabelPairs(inner) {
			if !strings.HasPrefix(p, `le="`) {
				keep = append(keep, p)
			}
		}
		sort.Strings(keep)
		return strings.Join(keep, ",")
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	samples := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := typeRe.FindStringSubmatch(line); m != nil {
				if _, dup := types[m[1]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", n, m[1])
				}
				if !helped[m[1]] {
					return fmt.Errorf("line %d: TYPE for %s without HELP text", n, m[1])
				}
				types[m[1]] = m[2]
				continue
			}
			if m := helpRe.FindStringSubmatch(line); m != nil {
				if strings.TrimSpace(m[2]) == "" {
					return fmt.Errorf("line %d: empty HELP for %s", n, m[1])
				}
				helped[m[1]] = true
				continue
			}
			return fmt.Errorf("line %d: malformed comment: %q", n, line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample: %q", n, line)
		}
		samples++
		name, labels, valStr := m[1], m[2], m[3]
		val, _ := strconv.ParseFloat(strings.Replace(valStr, "Inf", "inf", 1), 64)

		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) && types[strings.TrimSuffix(name, s)] == "histogram" {
				base, suffix = strings.TrimSuffix(name, s), s
				break
			}
		}
		if typ, ok := types[base]; ok && typ == "histogram" && suffix != "" {
			key := base + "\x00" + labelsSansLE(labels)
			h := hists[key]
			if h == nil {
				h = &histState{}
				hists[key] = h
			}
			switch suffix {
			case "_bucket":
				le := leRe.FindStringSubmatch(labels)
				if le == nil {
					return fmt.Errorf("line %d: histogram bucket without le label", n)
				}
				if val < h.lastCum {
					return fmt.Errorf("line %d: histogram %s buckets not cumulative", n, base)
				}
				h.lastCum = val
				if le[1] == "+Inf" {
					h.sawInf, h.infCum = true, val
				}
			case "_count":
				h.sawCount, h.count = true, val
			}
		} else if typ, ok := types[name]; ok {
			if typ == "counter" && val < 0 {
				return fmt.Errorf("line %d: negative counter %s", n, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples found")
	}
	for key, h := range hists {
		base := key[:strings.IndexByte(key, '\x00')]
		if !h.sawInf {
			return fmt.Errorf("histogram %s: missing +Inf bucket", base)
		}
		if h.sawCount && h.infCum != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", base, h.infCum, h.count)
		}
	}
	return nil
}
