// Suppressed unit mixes; zero diagnostics must survive.
package units

func Pack(headerPs, payloadNs int64) int64 {
	//lint:ignore unitflow fixture: deliberately packing mixed fields into one word
	return headerPs + payloadNs
}
