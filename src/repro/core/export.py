"""Cube results as XML documents (and back).

The paper's runs "were written into files"; an XML OLAP system naturally
speaks XML on the way out too.  :func:`cube_to_xml` serializes a
:class:`~repro.core.cube.CubeResult` into a self-describing document::

    <cube algorithm="BUC" aggregate="COUNT">
      <axes>
        <axis name="$n" path="author/name" relaxations="LND,PC-AD,SP"/>
        ...
      </axes>
      <cuboid point="$n:rigid, $p:rigid, $y:rigid">
        <group result="1.0"><k>John</k><k>p1</k><k>2003</k></group>
        ...
      </cuboid>
      ...
    </cube>

and :func:`cube_from_xml` reads it back given the lattice (which the
query defines), so materialized cubes can be persisted and reloaded.
Key components are child elements, so arbitrary value strings round-trip
without any delimiter escaping.  Groups are written in each packed
cuboid's stored order, which is key order.  A cube holds no null
component (the top-down family strips its null groups before it
reports), so the import refuses ``<k null="true"/>``, as it refuses a
key given twice in one cuboid, with :class:`~repro.errors.CubeError`;
each imported cuboid is packed.  The round-trip is property-tested.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.cube import CubeResult
from repro.core.groupby import Cuboid
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.packed import PackedCuboid, pack
from repro.core.query import X3Query
from repro.errors import CubeError
from repro.xmlmodel.nodes import Document, Element
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize


def cube_to_xml(cube: CubeResult, query: Optional[X3Query] = None) -> str:
    """Serialize a cube result to XML text."""
    root = Element(
        "cube",
        attrs={
            "algorithm": cube.algorithm or "?",
            "aggregate": cube.aggregate,
        },
    )
    if query is not None:
        axes = root.make_child("axes")
        for axis in query.axes:
            axes.make_child(
                "axis",
                attrs={
                    "name": axis.name,
                    "path": axis.path_text(),
                    "relaxations": ",".join(
                        sorted(r.value for r in axis.relaxations)
                    ),
                },
            )
    lattice = cube.lattice
    for point in sorted(cube.cuboids):
        cuboid_el = root.make_child(
            "cuboid", attrs={"point": lattice.describe(point)}
        )
        for key, value in cube.cuboids[point].items():
            group_el = cuboid_el.make_child(
                "group", attrs={"result": repr(value)}
            )
            for component in key:
                group_el.make_child("k", text=component)
    return serialize(Document(root), pretty=True)


def cube_from_xml(text: str, lattice: CubeLattice) -> CubeResult:
    """Load a cube result previously written by :func:`cube_to_xml`.

    The lattice must come from the same query specification; points are
    resolved through their descriptions.
    """
    doc = parse(text)
    if doc.root.tag != "cube":
        raise CubeError("not a cube document")
    cuboids: Dict[LatticePoint, PackedCuboid] = {}
    for cuboid_el in doc.root.find_children("cuboid"):
        description = cuboid_el.attrs.get("point", "")
        try:
            point = lattice.point_by_description(description)
        except KeyError as error:
            raise CubeError(
                f"cuboid point {description!r} does not belong to this "
                "lattice"
            ) from error
        arity = len(lattice.kept_axes(point))
        cuboid: Cuboid = {}
        for group_el in cuboid_el.find_children("group"):
            key = _read_key(group_el)
            if len(key) != arity:
                raise CubeError(
                    f"group key {key!r} does not have {arity} components"
                )
            if key in cuboid:
                raise CubeError(
                    f"group key {key!r} appears twice in cuboid "
                    f"{description!r}"
                )
            cuboid[key] = float(group_el.attrs["result"])
        cuboids[point] = pack(cuboid)
    return CubeResult(
        lattice=lattice,
        cuboids=cuboids,
        algorithm=doc.root.attrs.get("algorithm", "?"),
        aggregate=doc.root.attrs.get("aggregate", "COUNT"),
    )


def _read_key(group_el: Element) -> Tuple[str, ...]:
    components = []
    for k_el in group_el.find_children("k"):
        if k_el.attrs.get("null") == "true":
            raise CubeError(
                "a null key component (<k null=\"true\"/>) cannot be "
                "loaded: a cube holds none"
            )
        components.append(k_el.text)
    return tuple(components)
