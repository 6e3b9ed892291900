package protein

import (
	"encoding/json"
	"fmt"
)

// structureJSON is the serialized form of a design structure: sequences,
// coordinates and generation — everything needed to re-emit FASTA/PDB.
type structureJSON struct {
	Name       string  `json:"name"`
	Receptor   string  `json:"receptor"`
	Peptide    string  `json:"peptide,omitempty"`
	RecXYZ     []Coord `json:"rec_xyz,omitempty"`
	PepXYZ     []Coord `json:"pep_xyz,omitempty"`
	Generation int     `json:"generation"`
}

// MarshalJSON encodes the structure with each chain as its one-letter
// sequence string.
func (st *Structure) MarshalJSON() ([]byte, error) {
	return json.Marshal(structureJSON{
		Name:       st.Name,
		Receptor:   st.Receptor.Seq.String(),
		Peptide:    st.Peptide.Seq.String(),
		RecXYZ:     st.RecXYZ,
		PepXYZ:     st.PepXYZ,
		Generation: st.Generation,
	})
}

// UnmarshalJSON decodes MarshalJSON's form into receptor chain A and,
// when present, peptide chain B. An invalid residue is an error naming
// the structure.
func (st *Structure) UnmarshalJSON(data []byte) error {
	var s structureJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	rec, err := ParseSequence(s.Receptor)
	if err != nil {
		return fmt.Errorf("protein: structure %s: %w", s.Name, err)
	}
	*st = Structure{
		Name:       s.Name,
		Receptor:   Chain{ID: "A", Seq: rec},
		RecXYZ:     s.RecXYZ,
		PepXYZ:     s.PepXYZ,
		Generation: s.Generation,
	}
	if s.Peptide != "" {
		pep, err := ParseSequence(s.Peptide)
		if err != nil {
			return fmt.Errorf("protein: structure %s peptide: %w", s.Name, err)
		}
		st.Peptide = Chain{ID: "B", Seq: pep}
	}
	return nil
}
