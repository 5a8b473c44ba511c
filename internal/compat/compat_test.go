package compat

import (
	"strings"
	"testing"

	"repro/internal/xsd"
)

func mustParse(t *testing.T, body string) *xsd.Schema {
	t.Helper()
	src := `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:v"
            xmlns:v="urn:v" elementFormDefault="qualified">` + body + `</xsd:schema>`
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatalf("ParseString: %v\n%s", err, body)
	}
	return s
}

// counted is a document of up to max <e> children.
func counted(max string) string {
	return `<xsd:element name="doc"><xsd:complexType><xsd:sequence>
	   <xsd:element name="e" type="xsd:string" maxOccurs="` + max + `"/>
	 </xsd:sequence></xsd:complexType></xsd:element>`
}

// all5 is a document whose five members come in any order, the last
// with minOccurs eMin.
func all5(eMin string) string {
	return `<xsd:element name="doc"><xsd:complexType><xsd:all>
	   <xsd:element name="a" type="xsd:string"/>
	   <xsd:element name="b" type="xsd:string"/>
	   <xsd:element name="c" type="xsd:string"/>
	   <xsd:element name="d" type="xsd:string"/>
	   <xsd:element name="e" type="xsd:string" minOccurs="` + eMin + `"/>
	 </xsd:all></xsd:complexType></xsd:element>`
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name     string
		old, new string
		want     Level
	}{
		{"identical",
			`<xsd:element name="a" type="xsd:string"/>`,
			`<xsd:element name="a" type="xsd:string"/>`,
			Full},
		{"added optional trailing element",
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			   <xsd:element name="b" type="xsd:string" minOccurs="0"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			Backward},
		{"removed optional element",
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			   <xsd:element name="b" type="xsd:string" minOccurs="0"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			Forward},
		{"renamed child element",
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="b" type="xsd:string"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			None},
		{"content model refactored, same language",
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string" maxOccurs="2"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			   <xsd:element name="a" type="xsd:string" minOccurs="0"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			Full},
		{"minOccurs tightened",
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string" minOccurs="0"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			Forward},
		{"enumeration widened",
			`<xsd:element name="status" type="v:Status"/>
			 <xsd:simpleType name="Status"><xsd:restriction base="xsd:string">
			   <xsd:enumeration value="open"/>
			 </xsd:restriction></xsd:simpleType>`,
			`<xsd:element name="status" type="v:Status"/>
			 <xsd:simpleType name="Status"><xsd:restriction base="xsd:string">
			   <xsd:enumeration value="open"/><xsd:enumeration value="closed"/>
			 </xsd:restriction></xsd:simpleType>`,
			Backward},
		{"element type widened along builtin chain",
			`<xsd:element name="n" type="xsd:int"/>`,
			`<xsd:element name="n" type="xsd:integer"/>`,
			Backward},
		{"attribute made required",
			`<xsd:element name="doc"><xsd:complexType>
			   <xsd:attribute name="id" type="xsd:string"/>
			 </xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType>
			   <xsd:attribute name="id" type="xsd:string" use="required"/>
			 </xsd:complexType></xsd:element>`,
			Forward},
		{"optional attribute added",
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence/></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence/>
			   <xsd:attribute name="id" type="xsd:string"/>
			 </xsd:complexType></xsd:element>`,
			Backward},
		{"global element removed",
			`<xsd:element name="a" type="xsd:string"/><xsd:element name="b" type="xsd:string"/>`,
			`<xsd:element name="a" type="xsd:string"/>`,
			Forward},
		{"nillable revoked",
			`<xsd:element name="a" type="xsd:string" nillable="true"/>`,
			`<xsd:element name="a" type="xsd:string"/>`,
			Forward},
		{"recursive type gains optional attribute",
			`<xsd:element name="node" type="v:Node"/>
			 <xsd:complexType name="Node"><xsd:sequence>
			   <xsd:element name="child" type="v:Node" minOccurs="0" maxOccurs="unbounded"/>
			 </xsd:sequence></xsd:complexType>`,
			`<xsd:element name="node" type="v:Node"/>
			 <xsd:complexType name="Node"><xsd:sequence>
			   <xsd:element name="child" type="v:Node" minOccurs="0" maxOccurs="unbounded"/>
			 </xsd:sequence><xsd:attribute name="label" type="xsd:string"/></xsd:complexType>`,
			Backward},
		{"mixed content revoked",
			`<xsd:element name="doc"><xsd:complexType mixed="true"><xsd:sequence>
			   <xsd:element name="a" type="xsd:string" minOccurs="0"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			`<xsd:element name="doc"><xsd:complexType><xsd:sequence>
			   <xsd:element name="a" type="xsd:string" minOccurs="0"/>
			 </xsd:sequence></xsd:complexType></xsd:element>`,
			Forward},
		{"identical maxOccurs 5000",
			counted("5000"), counted("5000"),
			Full},
		{"identical 5-member all",
			all5("0"), all5("0"),
			Full},
		{"maxOccurs 5000 made unbounded",
			counted("5000"), counted("unbounded"),
			Backward},
		{"5-member all with an optional member made required",
			all5("0"), all5("1"),
			Forward},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldS, newS := mustParse(t, tc.old), mustParse(t, tc.new)
			r := Classify(oldS, newS)
			if r.Level != tc.want {
				t.Errorf("Level = %s, want %s\nbackward breaks: %v\nforward breaks: %v",
					r.Level, tc.want, r.BackwardBreaks, r.ForwardBreaks)
			}
			if r.Backward() != (tc.want == Backward || tc.want == Full) {
				t.Errorf("Backward() = %v inconsistent with level %s", r.Backward(), r.Level)
			}
			if r.Forward() != (tc.want == Forward || tc.want == Full) {
				t.Errorf("Forward() = %v inconsistent with level %s", r.Forward(), r.Level)
			}
		})
	}
}

func TestClassifyBreakDetails(t *testing.T) {
	oldS := mustParse(t, `<xsd:element name="doc"><xsd:complexType><xsd:sequence>
	  <xsd:element name="a" type="xsd:string"/>
	</xsd:sequence></xsd:complexType></xsd:element>`)
	newS := mustParse(t, `<xsd:element name="doc"><xsd:complexType><xsd:sequence>
	  <xsd:element name="a" type="xsd:string"/>
	  <xsd:element name="b" type="xsd:string"/>
	</xsd:sequence></xsd:complexType></xsd:element>`)
	r := Classify(oldS, newS)
	if r.Level != None {
		t.Fatalf("Level = %s, want none (new requires b, old forbids it)", r.Level)
	}
	if len(r.BackwardBreaks) == 0 || !strings.Contains(r.BackwardBreaks[0], "content model") {
		t.Errorf("backward breaks = %v, want a content-model reason", r.BackwardBreaks)
	}
	if len(r.ForwardBreaks) == 0 {
		t.Errorf("forward breaks empty, want a reason")
	}
}

func TestSatisfies(t *testing.T) {
	backward := &Report{Level: Backward, ForwardBreaks: []string{"x"}}
	full := &Report{Level: Full}
	none := &Report{Level: None, BackwardBreaks: []string{"x"}, ForwardBreaks: []string{"y"}}
	for _, tc := range []struct {
		r    *Report
		gate Level
		want bool
	}{
		{backward, None, true}, {backward, Backward, true}, {backward, Forward, false}, {backward, Full, false},
		{full, Backward, true}, {full, Forward, true}, {full, Full, true},
		{none, None, true}, {none, Backward, false},
	} {
		if got := tc.r.Satisfies(tc.gate); got != tc.want {
			t.Errorf("level %s gate %s: Satisfies = %v, want %v", tc.r.Level, tc.gate, got, tc.want)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for _, l := range []Level{None, Backward, Forward, Full} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("sideways"); err == nil {
		t.Error("ParseLevel should reject unknown names")
	}
}
