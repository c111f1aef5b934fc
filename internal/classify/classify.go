// Package classify implements the paper's error-versus-attack classification
// methodology (§3.4, Fig. 5): a structural analysis of the emission matrices
// of the two HMMs the detector estimates.
//
// Network-level analysis of B^CO distinguishes attacks (which warp the
// correspondence between correct and observable environment states) from
// errors (which leave it one-to-one):
//
//   - rows not orthogonal  → Dynamic Deletion (two correct states observed
//     as one);
//   - columns not orthogonal → Dynamic Creation (one correct state observed
//     as two);
//   - both → Mixed;
//   - orthogonal but every hidden state associated with an observable state
//     whose attributes all differ → Dynamic Change.
//
// Per-sensor analysis of B^CE types the error on a tracked sensor:
//
//   - a single dominant column (Eq. 7) → Stuck-at-Value;
//   - one-to-one structure with constant correct/error attribute ratio →
//     Calibration; constant difference → Additive;
//   - no structure → Unknown (the paper notes Random-Noise errors cannot be
//     classified under this estimation model).
package classify

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sensorguard/internal/hmm"
	"sensorguard/internal/stats"
	"sensorguard/internal/track"
	"sensorguard/internal/vecmat"
)

// Kind is the diagnosed error/attack type.
type Kind int

// Diagnosis kinds.
const (
	// KindNone means no anomaly structure was found.
	KindNone Kind = iota + 1
	// KindStuckAt is the Stuck-at-Value error.
	KindStuckAt
	// KindCalibration is the multiplicative Calibration error.
	KindCalibration
	// KindAdditive is the Additive error.
	KindAdditive
	// KindUnknownError is an error with no recognised structure.
	KindUnknownError
	// KindRandomNoise is a high-variance, zero-mean corrupted sensor.
	// The paper (§3.4) deems Random-Noise errors unclassifiable from the
	// HMM structure alone; this implementation identifies them from the
	// suspect's empirical per-state statistics instead (near-identity
	// means with inflated variance).
	KindRandomNoise
	// KindDynamicCreation is the state-creating attack.
	KindDynamicCreation
	// KindDynamicDeletion is the state-deleting attack.
	KindDynamicDeletion
	// KindDynamicChange is the state-displacing attack.
	KindDynamicChange
	// KindMixed is a combination attack.
	KindMixed
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindStuckAt:
		return "stuck-at"
	case KindCalibration:
		return "calibration"
	case KindAdditive:
		return "additive"
	case KindUnknownError:
		return "unknown-error"
	case KindRandomNoise:
		return "random-noise"
	case KindDynamicCreation:
		return "dynamic-creation"
	case KindDynamicDeletion:
		return "dynamic-deletion"
	case KindDynamicChange:
		return "dynamic-change"
	case KindMixed:
		return "mixed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsAttack reports whether the kind is a malicious-attack diagnosis.
func (k Kind) IsAttack() bool {
	switch k {
	case KindDynamicCreation, KindDynamicDeletion, KindDynamicChange, KindMixed:
		return true
	default:
		return false
	}
}

// IsError reports whether the kind is an accidental-error diagnosis.
func (k Kind) IsError() bool {
	switch k {
	case KindStuckAt, KindCalibration, KindAdditive, KindUnknownError, KindRandomNoise:
		return true
	default:
		return false
	}
}

// Config holds the classification thresholds.
type Config struct {
	// NetRowOrtho tests B^CO rows (the Dynamic-Deletion signature). A
	// deletion concentrates a full row onto another row's symbol, so the
	// offending dot product is large (the paper's Table 6 row pair dots
	// at ≈1); a higher threshold than the column test rejects the ~0.1
	// artifacts left by windows straddling attack activation edges.
	NetRowOrtho vecmat.OrthoThresholds
	// NetColOrtho tests B^CO columns (the Dynamic-Creation signature). A
	// creation splits one row between two symbols, which caps the column
	// dot product at 0.25 (the paper's Table 7 split dots at ≈0.23), so
	// the threshold stays at the paper's 0.1.
	NetColOrtho vecmat.OrthoThresholds
	// SensorOrtho tests the per-sensor B^CE one-to-one structure (§4.1
	// uses off-diagonal < 0.1 and diagonal > 0.8).
	SensorOrtho vecmat.OrthoThresholds
	// ChangeMinDominance is the minimum dominant emission mass for the
	// injective mapping of the Dynamic-Change test.
	ChangeMinDominance float64
	// MinStateShare suppresses spurious states: hidden states visited in
	// fewer than this fraction of steps are excluded from the structural
	// analysis (the paper drops the low-probability (16,27) state).
	MinStateShare float64
	// StuckDominance is the per-row threshold for the Eq. (7) "column of
	// approximately all ones" (the paper's sensor-6 matrix has entries
	// down to 0.67).
	StuckDominance float64
	// ConstSpreadMax bounds the normalised spread (std/|mean|) accepted
	// as a "constant" ratio or difference in the calibration/additive
	// test.
	ConstSpreadMax float64
	// ChangeMinDelta is the per-attribute minimum displacement for the
	// Dynamic-Change test (∀i: x_i^c ≠ x_i^o needs a noise floor).
	ChangeMinDelta float64
	// ErrStdMax is the largest per-attribute within-state standard
	// deviation of a suspect's readings still considered a *structured*
	// transform; above it the corruption is noise-like.
	ErrStdMax float64
	// MinProfileN is the minimum number of recorded windows per hidden
	// state for the state to contribute to the ratio/difference test.
	MinProfileN int
	// IdentityRatioTol and IdentityDiffTol define the near-identity band
	// (ratio ≈ 1, difference ≈ 0) within which the suspect's means agree
	// with the correct states — boundary flapping or pure noise, not a
	// systematic transform.
	IdentityRatioTol float64
	IdentityDiffTol  float64
}

// DefaultConfig mirrors the paper's evaluation thresholds.
func DefaultConfig() Config {
	return Config{
		NetRowOrtho:        vecmat.OrthoThresholds{MaxOffDiag: 0.25, MinDiag: 0.5},
		NetColOrtho:        vecmat.DefaultOrthoThresholds(),
		SensorOrtho:        vecmat.DefaultOrthoThresholds(),
		ChangeMinDominance: 0.6,
		MinStateShare:      0.03,
		StuckDominance:     0.5,
		ConstSpreadMax:     0.15,
		ChangeMinDelta:     1.0,
		ErrStdMax:          3.0,
		MinProfileN:        5,
		IdentityRatioTol:   0.06,
		IdentityDiffTol:    1.5,
	}
}

// Association pairs a hidden (correct) state with the observation symbol it
// dominantly emits.
type Association struct {
	Hidden int
	Symbol int
	Mass   float64
}

// NetworkDiagnosis is the outcome of the B^CO analysis.
type NetworkDiagnosis struct {
	// Kind is KindNone, or one of the attack kinds.
	Kind Kind
	// RowViolations and ColViolations carry the offending state-ID pairs
	// (translated from matrix indices).
	RowViolations, ColViolations []vecmat.OrthoViolation
	// Associations maps every active hidden state to its dominant
	// observable state.
	Associations []Association
	// ActiveHidden lists the hidden states that passed the
	// spurious-state filter.
	ActiveHidden []int
	// Confidence scores the diagnosis in [0,1]: how far past its
	// decision threshold the supporting evidence sits.
	Confidence float64
}

// ErrNoStates is returned when the analysis has no active states to work on.
var ErrNoStates = errors.New("classify: no active states")

// Scratch holds the per-call temporaries of Network and Sensor — the
// active-row filter, the restricted and ⊥-free emission matrices, the row,
// column and symbol index slices — so a caller that classifies every window
// reuses them instead of allocating them per call. The zero value is ready
// to use. A Scratch is not safe for concurrent use; the diagnoses returned
// through it never alias its storage.
type Scratch struct {
	sub, norm           vecmat.Matrix
	active, used        []int
	rows, cols, symbols []int
	seen                map[int]bool
	ratios, diffs       [][]float64
}

// Network analyses the B^CO snapshot. states supplies the attribute vector
// of every model state (for the Dynamic-Change attribute test).
func Network(co hmm.Snapshot, states map[int]vecmat.Vector, cfg Config) (NetworkDiagnosis, error) {
	var s Scratch
	return s.Network(co, states, cfg)
}

// Network is the package-level Network with its temporaries kept in s.
func (s *Scratch) Network(co hmm.Snapshot, states map[int]vecmat.Vector, cfg Config) (NetworkDiagnosis, error) {
	s.active = activeHidden(s.active[:0], co, cfg.MinStateShare)
	if len(s.active) == 0 {
		return NetworkDiagnosis{}, ErrNoStates
	}
	// The diagnosis keeps the active rows, so they get their own copy.
	activeRows := slices.Clone(s.active)
	if co.B.Cols() != len(co.SymbolIDs) {
		return NetworkDiagnosis{}, fmt.Errorf("classify: B^CO has %d columns for %d symbols: %w",
			co.B.Cols(), len(co.SymbolIDs), vecmat.ErrDimensionMismatch)
	}
	// Restrict B to the active rows so spurious states contaminate
	// neither the row nor the column tests.
	sub := &s.sub
	sub.Reshape(len(activeRows), len(co.SymbolIDs))
	for i, id := range activeRows {
		ri, err := co.HiddenIndex(id)
		if err != nil {
			return NetworkDiagnosis{}, err
		}
		for j := range co.SymbolIDs {
			sub.Set(i, j, co.B.At(ri, j))
		}
	}
	s.rows = s.rows[:0]
	for i := range activeRows {
		s.rows = append(s.rows, i)
	}
	s.cols = activeCols(s.cols[:0], sub, s.rows)
	// With no active column the filter stays nil, which ColsOrthogonal
	// reads as "every column".
	var colIdx []int
	if len(s.cols) > 0 {
		colIdx = s.cols
	}

	d := NetworkDiagnosis{ActiveHidden: activeRows}
	// The orthogonality tests return fresh slices of matrix indices;
	// translate them to state IDs in place.
	d.RowViolations = sub.RowsOrthogonal(cfg.NetRowOrtho, s.rows)
	for i, v := range d.RowViolations {
		d.RowViolations[i].I, d.RowViolations[i].J = activeRows[v.I], activeRows[v.J]
	}
	d.ColViolations = sub.ColsOrthogonal(cfg.NetColOrtho, colIdx)
	for i, v := range d.ColViolations {
		d.ColViolations[i].I, d.ColViolations[i].J = co.SymbolIDs[v.I], co.SymbolIDs[v.J]
	}
	for i := range activeRows {
		c, mass := sub.DominantCol(i)
		if c >= 0 {
			if d.Associations == nil {
				d.Associations = make([]Association, 0, len(activeRows)-i)
			}
			d.Associations = append(d.Associations, Association{
				Hidden: activeRows[i], Symbol: co.SymbolIDs[c], Mass: mass,
			})
		}
	}

	// Decision. The Dynamic-Change signature — a clean injective mapping
	// of every hidden state onto a *different*, attribute-displaced
	// observable state — is tested first: a change attack can leave
	// marginal orthogonality violations at its activation edges, but no
	// deletion (non-injective) or creation (identity-dominant split) can
	// satisfy the injective all-displaced condition.
	if s.isChangeMapping(d.Associations, states, cfg.ChangeMinDelta, cfg.ChangeMinDominance) {
		d.Kind = KindDynamicChange
		d.Confidence = networkConfidence(&d, cfg)
		return d, nil
	}
	// A deletion shows as two *distinct* rows emitting the same symbol:
	// only off-diagonal row violations count as deletion evidence. A
	// diagonal (self-product) violation is a split row — the same
	// symptom the column test detects for a creation — so it is reported
	// but does not flip the decision to deletion/mixed by itself.
	offDiagRows := 0
	for _, v := range d.RowViolations {
		if v.I != v.J {
			offDiagRows++
		}
	}
	colsBad := len(d.ColViolations) > 0
	switch {
	case offDiagRows > 0 && colsBad:
		d.Kind = KindMixed
	case offDiagRows > 0:
		d.Kind = KindDynamicDeletion
	case colsBad:
		d.Kind = KindDynamicCreation
	default:
		d.Kind = KindNone
	}
	d.Confidence = networkConfidence(&d, cfg)
	return d, nil
}

// isChangeMapping extends isChangeAttack with the injectivity and dominance
// conditions of the network-level Dynamic-Change test.
func (s *Scratch) isChangeMapping(assocs []Association, states map[int]vecmat.Vector, minDelta, minDominance float64) bool {
	if len(assocs) == 0 {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[int]bool, len(assocs))
	} else {
		clear(s.seen)
	}
	for _, a := range assocs {
		if a.Mass < minDominance {
			return false
		}
		if s.seen[a.Symbol] {
			return false // not injective
		}
		s.seen[a.Symbol] = true
	}
	return isChangeAttack(assocs, states, minDelta)
}

// isChangeAttack tests the Dynamic-Change signature: a one-to-one
// correspondence in which every hidden state's attributes all differ from
// its associated observable state's attributes by more than the noise floor.
func isChangeAttack(assocs []Association, states map[int]vecmat.Vector, minDelta float64) bool {
	if len(assocs) == 0 {
		return false
	}
	for _, a := range assocs {
		if a.Hidden == a.Symbol {
			return false // identity mapping: nothing displaced
		}
		hc, ok := states[a.Hidden]
		if !ok {
			return false
		}
		oc, ok := states[a.Symbol]
		if !ok {
			return false
		}
		if len(hc) != len(oc) {
			return false
		}
		for i := range hc {
			if math.Abs(hc[i]-oc[i]) < minDelta {
				return false // some attribute unchanged
			}
		}
	}
	return true
}

// activeHidden appends to dst the hidden states that pass the visit-share
// filter.
func activeHidden(dst []int, s hmm.Snapshot, minShare float64) []int {
	var total float64
	for _, v := range s.Visits {
		total += v
	}
	if total == 0 {
		return dst
	}
	for _, id := range s.HiddenIDs {
		if s.Visits[id]/total >= minShare {
			dst = append(dst, id)
		}
	}
	return dst
}

// AttributeFit summarises how constant the correct/error attribute ratio or
// difference is across associated state pairs, per attribute.
type AttributeFit struct {
	// Mean and Spread are per-attribute: Spread is std/max(|mean|, ε).
	Mean   []float64
	Spread []float64
}

// worst returns the largest per-attribute spread.
func (f AttributeFit) worst() float64 {
	w := 0.0
	for _, s := range f.Spread {
		w = math.Max(w, s)
	}
	return w
}

// ErrorStats summarises a suspect sensor's own readings within one hidden
// (correct) environment state: the empirical error-state attributes the
// paper's §3.4 ratio/difference test compares against the correct state.
// Using the empirical per-state mean rather than a quantised model-state
// centroid makes the test immune to the state-grid resolution.
type ErrorStats struct {
	// Mean and Std are per-attribute statistics of the sensor's window
	// means recorded while the environment was in this hidden state and
	// the sensor was alarming.
	Mean vecmat.Vector
	Std  vecmat.Vector
	// N counts the recorded windows.
	N int
}

// ErrorProfile maps hidden-state IDs to the suspect's empirical statistics.
type ErrorProfile map[int]ErrorStats

// SensorDiagnosis is the outcome of the per-sensor B^CE analysis.
type SensorDiagnosis struct {
	Sensor int
	Kind   Kind
	// StuckState is the stuck symbol for KindStuckAt.
	StuckState int
	// Ratio and Diff summarise the calibration/additive tests (correct
	// state attributes against the sensor's empirical error means).
	Ratio, Diff AttributeFit
	// MaxStd is the largest per-attribute within-state standard
	// deviation observed (the noise test input).
	MaxStd float64
	// Associations maps active hidden states to dominant non-⊥ symbols
	// of B^CE (reported for inspection; the classification itself relies
	// on the empirical profile).
	Associations []Association
	// Confidence scores the diagnosis in [0,1]: how far past its
	// decision threshold the supporting evidence sits.
	Confidence float64
}

// Sensor analyses one tracked sensor: the B^CE snapshot for the stuck-at
// signature (Eq. 7, ⊥ excluded per §4.1) and the empirical error profile
// for the calibration/additive/noise discrimination.
func Sensor(sensorID int, ce hmm.Snapshot, states map[int]vecmat.Vector, profile ErrorProfile, cfg Config) (SensorDiagnosis, error) {
	var s Scratch
	return s.Sensor(sensorID, ce, states, profile, cfg)
}

// Sensor is the package-level Sensor with its temporaries kept in s.
func (s *Scratch) Sensor(sensorID int, ce hmm.Snapshot, states map[int]vecmat.Vector, profile ErrorProfile, cfg Config) (SensorDiagnosis, error) {
	d := SensorDiagnosis{Sensor: sensorID, Kind: KindUnknownError}

	s.active = activeHidden(s.active[:0], ce, cfg.MinStateShare)
	activeRows := s.active
	if len(activeRows) == 0 {
		return d, ErrNoStates
	}
	s.rows = s.rows[:0]
	for _, id := range activeRows {
		ri, err := ce.HiddenIndex(id)
		if err != nil {
			return d, err
		}
		s.rows = append(s.rows, ri)
	}
	rowIdx := s.rows

	// Build the ⊥-free view: columns other than Bottom.
	sub, subIDs := s.dropBottom(ce)

	// Drop rows whose mass sits almost entirely on ⊥: in those hidden
	// states the sensor agreed with the majority, so they carry no
	// information about the error structure.
	const minErrMass = 0.05
	kept := rowIdx[:0]
	keptIDs := activeRows[:0]
	for i, ri := range rowIdx {
		var mass float64
		for j := 0; j < sub.Cols(); j++ {
			mass += sub.At(ri, j)
		}
		if mass >= minErrMass {
			kept = append(kept, ri)
			keptIDs = append(keptIDs, activeRows[i])
		}
	}
	rowIdx, activeRows = kept, keptIDs
	if len(rowIdx) == 0 {
		return d, ErrNoStates
	}

	// Stuck-at: Eq. (7) single dominant column across all active rows.
	if col, ok := sub.AllOnesColumn(rowIdx, cfg.StuckDominance); ok {
		// A single active hidden state cannot distinguish stuck-at
		// from a one-to-one error; require at least two.
		if len(activeRows) >= 2 {
			d.Kind = KindStuckAt
			d.StuckState = subIDs[col]
			minMass := 1.0
			for _, ri := range rowIdx {
				if _, mass := sub.DominantCol(ri); mass < minMass {
					minMass = mass
				}
			}
			d.Confidence = sensorConfidence(&d, minMass, cfg)
			return d, nil
		}
	}

	// Report the B^CE associations (dominant non-⊥ symbol per active
	// hidden state) for inspection and the change-attack fallback.
	norm := &s.norm
	norm.Reshape(sub.Rows(), sub.Cols())
	for i := 0; i < sub.Rows(); i++ {
		for j := 0; j < sub.Cols(); j++ {
			norm.Set(i, j, sub.At(i, j))
		}
	}
	norm.NormalizeRows()
	for _, ri := range rowIdx {
		c, mass := norm.DominantCol(ri)
		if c >= 0 {
			d.Associations = append(d.Associations, Association{
				Hidden: hiddenIDAt(ce, ri), Symbol: subIDs[c], Mass: mass,
			})
		}
	}

	// Empirical ratio/difference analysis over the hidden states with
	// enough recorded windows. The test needs the fault observed across
	// at least two environment states: with a single state the ratio and
	// difference are trivially "constant" and carry no evidence.
	s.used = s.used[:0]
	for _, id := range activeRows {
		if st, ok := profile[id]; ok && st.N >= cfg.MinProfileN {
			s.used = append(s.used, id)
		}
	}
	if len(s.used) < 2 {
		return d, nil
	}
	ratio, diff, maxStd, err := s.profileFits(s.used, states, profile)
	if err != nil {
		return d, nil //nolint:nilerr // missing attributes: report unknown
	}
	d.Ratio, d.Diff, d.MaxStd = ratio, diff, maxStd

	// Identity band: the suspect's means agree with the correct states.
	identity := true
	for i := range ratio.Mean {
		if math.Abs(ratio.Mean[i]-1) > cfg.IdentityRatioTol ||
			math.Abs(diff.Mean[i]) > cfg.IdentityDiffTol {
			identity = false
		}
	}

	switch {
	case maxStd > cfg.ErrStdMax:
		// Noise-like corruption. The profile records only *alarming*
		// windows, which biases the empirical mean away from the
		// correct value by a fraction of the noise spread, so the
		// identity band here scales with the observed std: a mean
		// displacement within one within-state std is consistent with
		// zero-mean noise; anything larger is unrecognised.
		noisyIdentity := true
		for i := range diff.Mean {
			if math.Abs(diff.Mean[i]) > maxStd {
				noisyIdentity = false
			}
		}
		if noisyIdentity {
			d.Kind = KindRandomNoise
			d.Confidence = sensorConfidence(&d, 0, cfg)
		}
		return d, nil
	case identity:
		// Structured agreement — boundary flapping, not a fault type.
		return d, nil
	}

	rw, dw := ratio.worst(), diff.worst()
	switch {
	case rw <= cfg.ConstSpreadMax && rw <= dw:
		d.Kind = KindCalibration
	case dw <= cfg.ConstSpreadMax:
		d.Kind = KindAdditive
	default:
		// Neither constant: §3.4 says check for a Dynamic Change
		// pattern before giving up.
		if isChangeAttack(d.Associations, states, cfg.ChangeMinDelta) {
			d.Kind = KindDynamicChange
		}
	}
	d.Confidence = sensorConfidence(&d, 0, cfg)
	return d, nil
}

// profileFits computes the per-attribute ratio and difference summaries of
// correct-state attributes against the suspect's empirical error means, and
// the largest within-state standard deviation.
func (s *Scratch) profileFits(used []int, states map[int]vecmat.Vector, profile ErrorProfile) (ratio, diff AttributeFit, maxStd float64, err error) {
	var dim int
	var ratios, diffs [][]float64
	for _, id := range used {
		hc, ok := states[id]
		if !ok {
			return ratio, diff, 0, fmt.Errorf("classify: no attributes for state %d", id)
		}
		st := profile[id]
		if len(st.Mean) != len(hc) {
			return ratio, diff, 0, vecmat.ErrDimensionMismatch
		}
		if dim == 0 {
			dim = len(hc)
			s.ratios = emptyRows(s.ratios, dim)
			s.diffs = emptyRows(s.diffs, dim)
			ratios, diffs = s.ratios, s.diffs
		}
		for i := 0; i < dim; i++ {
			const eps = 1e-9
			den := st.Mean[i]
			if math.Abs(den) < eps {
				den = eps
			}
			ratios[i] = append(ratios[i], hc[i]/den)
			diffs[i] = append(diffs[i], hc[i]-st.Mean[i])
			if i < len(st.Std) {
				maxStd = math.Max(maxStd, st.Std[i])
			}
		}
	}
	fit := func(per [][]float64) AttributeFit {
		f := AttributeFit{Mean: make([]float64, dim), Spread: make([]float64, dim)}
		for i := 0; i < dim; i++ {
			s := stats.Summarize(per[i])
			f.Mean[i] = s.Mean
			f.Spread[i] = math.Sqrt(s.Variance) / math.Max(math.Abs(s.Mean), 1e-9)
		}
		return f
	}
	return fit(ratios), fit(diffs), maxStd, nil
}

// emptyRows returns rows resized to n empty slices, keeping the capacity
// of the ones it already holds.
func emptyRows(rows [][]float64, n int) [][]float64 {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

func hiddenIDAt(s hmm.Snapshot, rowIdx int) int { return s.HiddenIDs[rowIdx] }

// dropBottom fills the scratch with B minus the ⊥ column and returns it
// with the surviving symbol IDs.
func (s *Scratch) dropBottom(v hmm.Snapshot) (*vecmat.Matrix, []int) {
	bottomCol := -1
	for j, id := range v.SymbolIDs {
		if id == track.Bottom {
			bottomCol = j
		}
	}
	s.symbols = s.symbols[:0]
	for j, id := range v.SymbolIDs {
		if j != bottomCol {
			s.symbols = append(s.symbols, id)
		}
	}
	cols := v.B.Cols()
	if bottomCol >= 0 {
		cols--
	}
	s.sub.Reshape(v.B.Rows(), cols)
	for i := 0; i < v.B.Rows(); i++ {
		k := 0
		for j := 0; j < v.B.Cols(); j++ {
			if j != bottomCol {
				s.sub.Set(i, k, v.B.At(i, j))
				k++
			}
		}
	}
	return &s.sub, s.symbols
}

// activeCols appends to dst the columns of b holding at least a minimum
// mass over the given rows.
func activeCols(dst []int, b *vecmat.Matrix, rowIdx []int) []int {
	const minMass = 0.05
	for j := 0; j < b.Cols(); j++ {
		var mass float64
		for _, ri := range rowIdx {
			mass += b.At(ri, j)
		}
		if mass >= minMass {
			dst = append(dst, j)
		}
	}
	return dst
}
