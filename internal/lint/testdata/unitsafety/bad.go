// Corpus: unit-suffix mixes the name heuristic catches in values no unit
// type touched, including through a plain conversion.
package units

type Stats struct {
	EnergyPJ float64
	EnergyNJ float64
	StaticMW float64
}

func Mix(busyPs, busyNs, totalCycles int64, freqMHz float64, s Stats) float64 {
	slack := busyPs - busyNs // want "mixes busyPs .* with busyNs"
	_ = slack
	if busyPs < busyNs { // want "mixes busyPs .* with busyNs"
		busyPs = busyNs
	}
	sum := s.EnergyPJ + s.EnergyNJ // want "mixes s.EnergyPJ .* with s.EnergyNJ"
	_ = sum
	wrong := s.EnergyPJ + s.StaticMW // want "mixes s.EnergyPJ .* with s.StaticMW"
	_ = wrong
	var accPJ float64
	accPJ += s.EnergyNJ                  // want "mixes accPJ .* with s.EnergyNJ"
	accPJ -= s.StaticMW                  // want "mixes accPJ .* with s.StaticMW"
	if float64(totalCycles) == freqMHz { // want "mixes float64\(totalCycles\) .* with freqMHz"
		return accPJ
	}
	return accPJ
}
