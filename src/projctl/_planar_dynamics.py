"""Dynamics of the bundled planar models.  Generated code: do not edit.

Written by tools/generate_dynamics.py with sympy 1.14.0 from the symbolic
pipeline in tests/oracles.py.  Each function is lambdify's printed source for
one model quantity; models._planar_model binds them to a parameter tuple.
The functions take Python floats: cos and sin come from math, so a body is
Python float arithmetic from its arguments to the returned numpy array.
Regenerate with `python tools/generate_dynamics.py`.
"""

from math import cos, sin

from numpy import array


def arm_M(q0, q1, q2, dq0, dq1, dq2, len0, len1, len2, mass0, mass1, mass2, rotin0, rotin1, rotin2, grav):
    x0 = sin(q0)
    x1 = (1/4)*len0**2
    x2 = cos(q0)
    x3 = len0*x2
    x4 = q0 + q1
    x5 = cos(x4)
    x6 = len1*x5
    x7 = x3 + (1/2)*x6
    x8 = len0*x0
    x9 = sin(x4)
    x10 = len1*x9
    x11 = (1/2)*x10
    x12 = -x11 - x8
    x13 = q2 + x4
    x14 = cos(x13)
    x15 = (1/2)*len2
    x16 = x14*x15 + x6
    x17 = x16 + x3
    x18 = sin(x13)
    x19 = x15*x18
    x20 = x10 + x19
    x21 = -x20 - x8
    x22 = rotin1 + rotin2
    x23 = -x20
    x24 = mass1*((1/2)*len1*x5*x7 - x11*x12) + mass2*(x16*x17 + x21*x23) + x22
    x25 = mass2*((1/2)*len2*x14*x17 - x19*x21) + rotin2
    x26 = (1/4)*len1**2
    x27 = mass2*((1/2)*len2*x14*x16 - x19*x23) + rotin2
    x28 = (1/4)*len2**2
    return array([[mass0*(x0**2*x1 + x1*x2**2) + mass1*(x12**2 + x7**2) + mass2*(x17**2 + x21**2) + rotin0 + x22, x24, x25], [x24, mass1*(x26*x5**2 + x26*x9**2) + mass2*(x16**2 + x23**2) + x22, x27], [x25, x27, mass2*(x14**2*x28 + x18**2*x28) + rotin2]])


def arm_C(q0, q1, q2, dq0, dq1, dq2, len0, len1, len2, mass0, mass1, mass2, rotin0, rotin1, rotin2, grav):
    x0 = len0*cos(q0)
    x1 = q0 + q1
    x2 = len1*cos(x1)
    x3 = q2 + x1
    x4 = len2*cos(x3)
    x5 = (1/2)*x4
    x6 = x2 + x5
    x7 = x0 + x6
    x8 = len2*sin(x3)
    x9 = len0*sin(q0)
    x10 = len1*sin(x1)
    x11 = (1/2)*x8
    x12 = x10 + x11
    x13 = -x12 - x9
    x14 = mass2*(-x13*x4 - x7*x8)
    x15 = (1/2)*dq2
    x16 = (1/2)*x2
    x17 = x0 + x16
    x18 = (1/2)*x10
    x19 = -x18 - x9
    x20 = 2*x10 + x8
    x21 = -x20
    x22 = 2*x2 + x4
    x23 = -x22
    x24 = mass1*(-x10*x17 - x19*x2) + mass2*(x13*x23 + x21*x7)
    x25 = (1/2)*dq1
    x26 = 2*x9
    x27 = 2*x0
    x28 = (1/2)*dq0
    x29 = x17*x18
    x30 = -x12
    x31 = mass2*(x21*x6 + x23*x30)
    x32 = -x6
    x33 = x13*x32 + x30*x7
    x34 = x11*x6
    x35 = x11*x32
    x36 = -x34 - x35
    x37 = mass2*x36
    x38 = x11*x7
    x39 = x13*x5 + x38
    x40 = x30*x5
    x41 = x34 + x40
    x42 = mass2*(-x39 - x41)
    x43 = mass2*(-x35 - x39 + x40)
    x44 = -x37 + x42 + x43
    x45 = dq2*mass2
    x46 = x25*x31
    x47 = x37 + x42 - x43
    x48 = -x7
    x49 = mass2*(-x30*x4 - x6*x8)
    x50 = x37 - x42 + x43
    return array([[x14*x15 + x24*x25 + x28*(mass1*(x17*(-x10 - x26) + x19*(-x2 - x27)) + mass2*(x13*(-x22 - x27) + x7*(-x20 - x26))), x15*x44 + x24*x28 + x25*(2*mass1*(-x16*x19 - x29) + 2*mass2*(x30*x32 + x30*x6 + x33) - x31), x14*x28 + x25*x44 - x39*x45], [x15*x47 + x28*(2*mass1*(x17*x18 - x29) + 2*mass2*(x13*x6 + x30*x48 + x33) - x24) + x46, x15*x49 + x28*x31 + x46, x25*x49 + x28*x47 - x41*x45], [x25*x50 + x28*(2*mass2*(-x11*x48 - x38) - x14), x25*(2*mass2*x36 - x49) + x28*x50, 0]])


def arm_tau_g(q0, q1, q2, dq0, dq1, dq2, len0, len1, len2, mass0, mass1, mass2, rotin0, rotin1, rotin2, grav):
    x0 = len0*cos(q0)
    x1 = q0 + q1
    x2 = len1*cos(x1)
    x3 = (1/2)*x2
    x4 = grav*mass1
    x5 = (1/2)*len2*cos(q2 + x1)
    x6 = x2 + x5
    x7 = grav*mass2
    return array([[-1/2*grav*mass0*x0 - x4*(x0 + x3) - x7*(x0 + x6)], [-x3*x4 - x6*x7], [-x5*x7]])


def arm_A0(q0, q1, q2, dq0, dq1, dq2, len0, len1, len2, mass0, mass1, mass2, rotin0, rotin1, rotin2, grav):
    x0 = q0 + q1
    x1 = q2 + x0
    x2 = len2*sin(x1)
    x3 = len1*sin(x0) + x2
    x4 = len2*cos(x1)
    x5 = len1*cos(x0) + x4
    return array([[len0*sin(q0) + x3, x3, x2], [0, 0, 0], [-len0*cos(q0) - x5, -x5, -x4]])


def arm_A_dot0(q0, q1, q2, dq0, dq1, dq2, len0, len1, len2, mass0, mass1, mass2, rotin0, rotin1, rotin2, grav):
    x0 = q0 + q1
    x1 = q2 + x0
    x2 = len2*cos(x1)
    x3 = len1*cos(x0) + x2
    x4 = dq2*x2
    x5 = dq1*x3 + x4
    x6 = len2*sin(x1)
    x7 = len1*sin(x0) + x6
    x8 = dq2*x6
    x9 = dq1*x7 + x8
    return array([[dq0*(len0*cos(q0) + x3) + x5, dq0*x3 + x5, dq0*x2 + dq1*x2 + x4], [0, 0, 0], [dq0*(len0*sin(q0) + x7) + x9, dq0*x7 + x9, dq0*x6 + dq1*x6 + x8]])


def arm_point0(q0, q1, q2, dq0, dq1, dq2, len0, len1, len2, mass0, mass1, mass2, rotin0, rotin1, rotin2, grav):
    x0 = q0 + q1
    x1 = q2 + x0
    return array([[len0*cos(q0) + len1*cos(x0) + len2*cos(x1)], [len0*sin(q0) + len1*sin(x0) + len2*sin(x1)]])


def biped_M(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = 2*ml + mt
    x1 = cos(bth)
    x2 = ct*mt
    x3 = bth + hip0
    x4 = cos(x3)
    x5 = (1/2)*ll*ml
    x6 = x4*x5
    x7 = bth + hip1
    x8 = cos(x7)
    x9 = x5*x8
    x10 = -x1*x2 + x6 + x9
    x11 = sin(bth)
    x12 = sin(x3)
    x13 = x12*x5
    x14 = sin(x7)
    x15 = x14*x5
    x16 = -x11*x2 + x13 + x15
    x17 = ct**2
    x18 = (1/4)*ll**2
    x19 = ml*(x12**2*x18 + x18*x4**2)
    x20 = ml*(x14**2*x18 + x18*x8**2)
    x21 = Il + x19
    x22 = Il + x20
    return array([[x0, 0, x10, x6, x9], [0, x0, x16, x13, x15], [x10, x16, 2*Il + It + mt*(x1**2*x17 + x11**2*x17) + x19 + x20, x21, x22], [x6, x13, x21, x21, 0], [x9, x15, x22, 0, x22]])


def biped_C(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip0
    x1 = ll*ml
    x2 = x1*sin(x0)
    x3 = (1/2)*dhip0
    x4 = x2*x3
    x5 = bth + hip1
    x6 = x1*sin(x5)
    x7 = (1/2)*dhip1
    x8 = x6*x7
    x9 = (1/2)*dbth
    x10 = x1*cos(x0)
    x11 = x10*x3
    x12 = x1*cos(x5)
    x13 = x12*x7
    return array([[0, 0, (1/2)*dbth*(2*ct*mt*sin(bth) - x2 - x6) - x4 - x8, -x2*x9 - x4, -x6*x9 - x8], [0, 0, x11 + x13 + x9*(-2*ct*mt*cos(bth) + x10 + x12), x10*x9 + x11, x12*x9 + x13], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])


def biped_tau_g(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = grav*ml
    x1 = (1/2)*ll*x0
    x2 = x1*sin(bth + hip0)
    x3 = x1*sin(bth + hip1)
    return array([[0], [-grav*mt - 2*x0], [ct*grav*mt*sin(bth) - x2 - x3], [-x2], [-x3]])


def biped_A0(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip0
    x1 = -ll*cos(x0)
    x2 = -ll*sin(x0)
    return array([[-1, 0, x1, x1, 0], [0, 0, 0, 0, 0], [0, -1, x2, x2, 0]])


def biped_A_dot0(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip0
    x1 = ll*sin(x0)
    x2 = dbth*x1 + dhip0*x1
    x3 = ll*cos(x0)
    x4 = -dbth*x3 - dhip0*x3
    return array([[0, 0, x2, x2, 0], [0, 0, 0, 0, 0], [0, 0, x4, x4, 0]])


def biped_point0(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip0
    return array([[bx + ll*sin(x0)], [bz - ll*cos(x0)]])


def biped_A1(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip1
    x1 = -ll*cos(x0)
    x2 = -ll*sin(x0)
    return array([[-1, 0, x1, 0, x1], [0, 0, 0, 0, 0], [0, -1, x2, 0, x2]])


def biped_A_dot1(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip1
    x1 = ll*sin(x0)
    x2 = dbth*x1 + dhip1*x1
    x3 = ll*cos(x0)
    x4 = -dbth*x3 - dhip1*x3
    return array([[0, 0, x2, 0, x2], [0, 0, 0, 0, 0], [0, 0, x4, 0, x4]])


def biped_point1(bx, bz, bth, hip0, hip1, dbx, dbz, dbth, dhip0, dhip1, mt, It, ct, ml, Il, ll, grav):
    x0 = bth + hip1
    return array([[bx + ll*sin(x0)], [bz - ll*cos(x0)]])
