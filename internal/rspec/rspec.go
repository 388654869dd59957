// Package rspec implements a GENI/SFA-style XML resource specification
// ("RSpec") for advertising testbed resources between federated
// authorities. The sfa package's binary wire format carries compact
// records; RSpec is the interchange format operators archive and the
// format external tools expect (cf. the Slice-based Federation Architecture
// draft [19] the paper builds on).
package rspec

import (
	"encoding/xml"
	"fmt"
	"io"
)

// Advertisement is the root element of an advertisement RSpec.
type Advertisement struct {
	XMLName   xml.Name `xml:"rspec"`
	Type      string   `xml:"type,attr"`      // always "advertisement"
	Authority string   `xml:"authority,attr"` // issuing authority
	Sites     []Site   `xml:"site"`
}

// Site is one location: an institution contributing nodes.
type Site struct {
	ID    string `xml:"id,attr"`
	Name  string `xml:"name,attr,omitempty"`
	Nodes []Node `xml:"node"`
}

// Node is one server at a site.
type Node struct {
	ID       string `xml:"id,attr"`
	HostName string `xml:"hostname,attr,omitempty"`
	// Capacity is the number of concurrent slivers the node supports.
	Capacity int `xml:"capacity,attr"`
	// Free is the currently unreserved sliver count (advertisements may
	// omit it; -1 means unknown).
	Free int `xml:"free,attr"`
}

// New builds an empty advertisement for an authority.
func New(authority string) *Advertisement {
	return &Advertisement{Type: "advertisement", Authority: authority}
}

// Validate checks structural invariants.
func (a *Advertisement) Validate() error {
	if a.Type != "advertisement" {
		return fmt.Errorf("rspec: type %q, want advertisement", a.Type)
	}
	if a.Authority == "" {
		return fmt.Errorf("rspec: missing authority")
	}
	seenSite := map[string]bool{}
	for _, s := range a.Sites {
		if s.ID == "" {
			return fmt.Errorf("rspec: site without id")
		}
		if seenSite[s.ID] {
			return fmt.Errorf("rspec: duplicate site %s", s.ID)
		}
		seenSite[s.ID] = true
		seenNode := map[string]bool{}
		for _, n := range s.Nodes {
			if n.ID == "" {
				return fmt.Errorf("rspec: site %s has a node without id", s.ID)
			}
			if seenNode[n.ID] {
				return fmt.Errorf("rspec: site %s has duplicate node %s", s.ID, n.ID)
			}
			seenNode[n.ID] = true
			if n.Capacity < 0 {
				return fmt.Errorf("rspec: node %s/%s has negative capacity", s.ID, n.ID)
			}
			if n.Free < -1 || n.Free > n.Capacity {
				return fmt.Errorf("rspec: node %s/%s free %d outside [-1, %d]", s.ID, n.ID, n.Free, n.Capacity)
			}
		}
	}
	return nil
}

// Encode writes the advertisement as indented XML with the standard header.
func (a *Advertisement) Encode(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("rspec: encode: %w", err)
	}
	if err := enc.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
