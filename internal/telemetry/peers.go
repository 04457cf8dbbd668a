package telemetry

import (
	"fmt"
	"strings"
)

// ParsePeers parses a comma-separated "name=url" list (the slsd -peers flag
// syntax) into scrape targets:
//
//	bankd=http://localhost:7700,h1=http://localhost:7710
//
// Names must be unique — they prefix every fleet series, so a collision
// would silently merge two daemons' samples — and may not hold the '*' of a
// series pattern, or "a*/x:rate" would name every peer's x:rate.
func ParsePeers(spec string) ([]Peer, error) {
	seen := make(map[string]bool)
	var peers []Peer
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, ok := strings.Cut(entry, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("telemetry: peer entry %q is not name=url", entry)
		}
		if strings.ContainsAny(name, "/ *") {
			return nil, fmt.Errorf("telemetry: peer name %q may not contain '/', '*' or spaces", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("telemetry: duplicate peer name %q", name)
		}
		seen[name] = true
		peers = append(peers, Peer{Name: name, BaseURL: url})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("telemetry: peer list %q is empty", spec)
	}
	return peers, nil
}
