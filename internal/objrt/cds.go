package objrt

import "fmt"

// CDS models JVM class-data sharing (§4.3): an archive of type metadata
// mapped at the same (virtual) location in every function container, so a
// klass ID embedded in a producer's object resolves identically in the
// consumer. Producer and consumer must run the same archive version;
// mismatches fail the type-safety check rather than mis-typing data.
type CDS struct {
	Version string
	ids     map[Tag]uint32
}

// DefaultCDS returns the archive all same-version Java runtimes share.
func DefaultCDS() *CDS {
	c := &CDS{Version: "jdk11.0.18-cds1", ids: map[Tag]uint32{}}
	for _, tag := range []Tag{
		TInt,     // java.lang.Long
		TFloat,   // java.lang.Double
		TStr,     // java.lang.String
		TBytes,   // byte[]
		TList,    // java.util.ArrayList
		TTuple,   // java.util.List
		TDict,    // java.util.HashMap
		TNDArray, // double[]
		TImage,   // java.awt.image.BufferedImage
		TTree,    // ml.Tree
		TForest,  // ml.Forest
	} {
		c.ids[tag] = 100 + uint32(tag)
	}
	return c
}

// KlassID returns the archive's klass ID for a tag (0 if unknown).
func (c *CDS) KlassID(tag Tag) uint32 { return c.ids[tag] }

// Check validates that an object header's klass ID resolves to the class
// this archive expects for its tag.
func (c *CDS) Check(tag Tag, klass uint32) error {
	want, ok := c.ids[tag]
	if !ok {
		return fmt.Errorf("%w: archive %s has no class for %v", ErrKlass, c.Version, tag)
	}
	if klass != want {
		return fmt.Errorf("%w: %v has klass %d, archive %s expects %d",
			ErrKlass, tag, klass, c.Version, want)
	}
	return nil
}

// WithVersion returns a copy of the archive with shifted klass IDs,
// modelling an incompatible runtime version (for tests of the §4.3
// same-version assumption).
func (c *CDS) WithVersion(version string, shift uint32) *CDS {
	out := &CDS{Version: version, ids: map[Tag]uint32{}}
	for tag, id := range c.ids {
		out.ids[tag] = id + shift
	}
	return out
}
