// Package abr is the adaptive-bitrate controller for the delivery model:
// a DASH-style bitrate ladder plus rung-selection policies driven by buffer
// occupancy and throughput estimates. The package is pure decision logic —
// it owns no clock and draws no randomness — so the delivery planner that
// consumes it stays deterministic: the same (link, ladder, policy) triple
// always produces the same rung schedule.
//
// Rungs carry the model-side consequences of a quality switch alongside the
// rate: a CostScale the decoder applies to its cycle model (lower bitrate ⇒
// cheaper entropy/transform work) and a QuantShift the MACH content cache
// applies before hashing (coarser quantization ⇒ blurrier, more repetitive
// content ⇒ higher match rates), so energy results respond to quality
// switches the way the paper's pipeline would.
package abr

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ErrBadManifest wraps every ladder-manifest validation failure — bad
// header, malformed rung line, cap or ordering violation — so callers can
// distinguish a damaged manifest from an I/O error with errors.Is, the same
// contract checkpoint.ErrCorrupt gives for checkpoint files.
var ErrBadManifest = errors.New("abr: bad ladder manifest")

// MaxRungs caps ladder size. Real encoding ladders top out well under ten
// rungs; the cap bounds allocations when the manifest comes from an
// untrusted file.
const MaxRungs = 16

// maxManifestBytes bounds how much of a manifest file is even read: a
// well-formed ladder is a few hundred bytes, so anything beyond this is
// rejected before parsing allocates.
const maxManifestBytes = 64 * 1024

// Rung is one quality level of the ladder.
type Rung struct {
	// BitrateKbps is the rung's encode bitrate. Only ratios between rungs
	// matter to the model: segment sizes scale by BitrateKbps relative to
	// the top rung, whose size is what the trace actually carries.
	BitrateKbps int64
	// CostScale multiplies the decoder's per-mab cycle cost at this rung;
	// the top rung is 1.0 and lower rungs are cheaper.
	CostScale float64
	// QuantShift is how many low bits the MACH engine drops from decoded
	// samples before hashing at this rung: 0 at the top rung, larger for
	// coarser encodes.
	QuantShift int
}

// Ladder is a bitrate ladder, ordered from the lowest rung to the highest.
type Ladder []Rung

// DefaultLadder returns a five-rung ladder shaped like a typical mobile
// DASH encode: the top rung is the native stream (scale 1, no quantization),
// each step down roughly halves the rate, trims decode work, and coarsens
// content.
func DefaultLadder() Ladder {
	return Ladder{
		{BitrateKbps: 400, CostScale: 0.40, QuantShift: 4},
		{BitrateKbps: 800, CostScale: 0.55, QuantShift: 3},
		{BitrateKbps: 1600, CostScale: 0.70, QuantShift: 2},
		{BitrateKbps: 3200, CostScale: 0.85, QuantShift: 1},
		{BitrateKbps: 6400, CostScale: 1.00, QuantShift: 0},
	}
}

// Validate reports malformed ladders: empty, over the cap, non-monotone
// bitrates, cost scales outside (0,1] or decreasing with quality, quant
// shifts outside [0,7] or increasing with quality.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("%w: empty ladder", ErrBadManifest)
	}
	if len(l) > MaxRungs {
		return fmt.Errorf("%w: %d rungs over the %d cap", ErrBadManifest, len(l), MaxRungs)
	}
	for i, r := range l {
		if r.BitrateKbps <= 0 {
			return fmt.Errorf("%w: rung %d bitrate %d kbps", ErrBadManifest, i, r.BitrateKbps)
		}
		if !(r.CostScale > 0 && r.CostScale <= 1) {
			return fmt.Errorf("%w: rung %d cost scale %g outside (0,1]", ErrBadManifest, i, r.CostScale)
		}
		if r.QuantShift < 0 || r.QuantShift > 7 {
			return fmt.Errorf("%w: rung %d quant shift %d outside [0,7]", ErrBadManifest, i, r.QuantShift)
		}
		if i > 0 {
			prev := l[i-1]
			if r.BitrateKbps <= prev.BitrateKbps {
				return fmt.Errorf("%w: rung %d bitrate %d not above rung %d's %d",
					ErrBadManifest, i, r.BitrateKbps, i-1, prev.BitrateKbps)
			}
			if r.CostScale < prev.CostScale {
				return fmt.Errorf("%w: rung %d cost scale %g below rung %d's %g",
					ErrBadManifest, i, r.CostScale, i-1, prev.CostScale)
			}
			if r.QuantShift > prev.QuantShift {
				return fmt.Errorf("%w: rung %d quant shift %d above rung %d's %d",
					ErrBadManifest, i, r.QuantShift, i-1, prev.QuantShift)
			}
		}
	}
	// Exact comparison on purpose: the top rung is the native stream only
	// when CostScale is exactly 1.0. The bit-identity fast path keys on
	// that literal, so an epsilon would admit scales that perturb goldens.
	if top := l[len(l)-1]; top.CostScale != 1 || top.QuantShift != 0 {
		return fmt.Errorf("%w: top rung must be the native stream (cost scale 1, quant shift 0), got %g/%d",
			ErrBadManifest, top.CostScale, top.QuantShift)
	}
	return nil
}

// Top returns the index of the highest rung.
func (l Ladder) Top() int { return len(l) - 1 }

// Ratio returns rung r's bitrate as a fraction of the top rung's.
func (l Ladder) Ratio(r int) float64 {
	return float64(l[r].BitrateKbps) / float64(l[l.Top()].BitrateKbps)
}

// ParseLadder parses the MACHLADDER manifest format:
//
//	MACHLADDER v1
//	# comment
//	rung <bitrate-kbps> <cost-scale> <quant-shift>
//	...
//
// Rungs must appear lowest to highest. Every failure wraps ErrBadManifest;
// input over 64 KB is rejected outright. The parser allocates nothing
// proportional to claimed counts — only to lines actually present, which the
// size cap bounds.
func ParseLadder(data []byte) (Ladder, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("%w: %d bytes over the %d cap", ErrBadManifest, len(data), maxManifestBytes)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "MACHLADDER v1" {
		return nil, fmt.Errorf("%w: missing MACHLADDER v1 header", ErrBadManifest)
	}
	var l Ladder
	for no, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "rung" {
			return nil, fmt.Errorf("%w: line %d: want \"rung <kbps> <cost-scale> <quant-shift>\", got %q",
				ErrBadManifest, no+2, line)
		}
		if len(l) == MaxRungs {
			return nil, fmt.Errorf("%w: line %d: more than %d rungs", ErrBadManifest, no+2, MaxRungs)
		}
		kbps, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bitrate %q: %v", ErrBadManifest, no+2, fields[1], err)
		}
		scale, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: cost scale %q: %v", ErrBadManifest, no+2, fields[2], err)
		}
		shift, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: quant shift %q: %v", ErrBadManifest, no+2, fields[3], err)
		}
		l = append(l, Rung{BitrateKbps: kbps, CostScale: scale, QuantShift: shift})
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// LoadLadder reads and parses a manifest file. Files over the size cap are
// rejected without being read whole; parse failures wrap ErrBadManifest,
// I/O failures do not.
func LoadLadder(path string) (Ladder, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxManifestBytes {
		return nil, fmt.Errorf("%w: %s is %d bytes, over the %d cap",
			ErrBadManifest, path, fi.Size(), maxManifestBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseLadder(data)
}
